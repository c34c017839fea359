package workload

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"bicriteria/internal/moldable"
)

// TestWriterMatchesOracleSpelling holds the writers to the oracle's bytes
// where encoding/json's spelling has edges: the float format switches
// and exponent clean-up, and the string escapes. The reader must then
// read those bytes as the oracle does, never refusing them as malformed.
func TestWriterMatchesOracleSpelling(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 1e20, 1e21, 5e-324, math.MaxFloat64, 1.0 / 3}
	names := []string{"", "plain", "<&>", "line\u2028para\u2029", "bad\xffutf8\xed\xa0\x80", `quote " and \ backslash`, "ctl\b\f\n\r\t\x00\x1f\x7f", "é😀"}
	var arrivals []Arrival
	for i, f := range floats {
		arrivals = append(arrivals, Arrival{Submit: f, Task: moldable.Task{ID: i, Weight: f, Times: []float64{f, 1}}})
	}
	for i, name := range names {
		arrivals = append(arrivals, Arrival{Submit: 1, Task: moldable.Task{ID: -i, Name: name, Weight: 1, Times: []float64{2}}})
	}
	arrivals = append(arrivals,
		Arrival{Task: moldable.Task{ID: 100, Weight: 1}},
		Arrival{Task: moldable.Task{ID: 101, Weight: 1, Times: []float64{}}})
	for _, stream := range [][]Arrival{nil, {}, arrivals} {
		var got, want bytes.Buffer
		if err := writeArrivals(&got, 64, stream); err != nil {
			t.Fatal(err)
		}
		if err := oracleWriteArrivals(&want, 64, stream); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("arrival bytes differ from the oracle's:\n%s\nvs\n%s", got.Bytes(), want.Bytes())
		}
		back, m, err := readArrivals(got.Bytes())
		oracle, oracleM, oracleErr := oracleReadArrivals(bytes.NewReader(got.Bytes()))
		if msg := sameOutcome(err, oracleErr, decodeArrivals); msg != "" {
			t.Fatal(msg)
		}
		if m != oracleM || !sameArrivals(back, oracle) {
			t.Fatalf("the codec and the oracle read different streams:\n%+v\n%+v", back, oracle)
		}

		inst := &moldable.Instance{M: 3}
		for _, a := range stream {
			inst.Tasks = append(inst.Tasks, a.Task)
		}
		got.Reset()
		want.Reset()
		if err := WriteInstance(&got, inst); err != nil {
			t.Fatal(err)
		}
		if err := oracleWriteInstance(&want, inst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("instance bytes differ from the oracle's:\n%s\nvs\n%s", got.Bytes(), want.Bytes())
		}
	}
}

// TestWriterRejectsNonFinite: a NaN or an infinity anywhere fails with
// the oracle's error, and nothing reaches the writer.
func TestWriterRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field := 0; field < 3; field++ {
			a := Arrival{Submit: 1, Task: moldable.Task{ID: 1, Weight: 1, Times: []float64{2, 1}}}
			switch field {
			case 0:
				a.Submit = bad
			case 1:
				a.Task.Weight = bad
			default:
				a.Task.Times[1] = bad
			}
			stream := []Arrival{{Task: moldable.Task{Weight: 1, Times: []float64{1}}}, a}
			var got, want bytes.Buffer
			err := writeArrivals(&got, 2, stream)
			wantErr := oracleWriteArrivals(&want, 2, stream)
			if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%v in field %d: error %v, want the oracle's %v", bad, field, err, wantErr)
			}
			if got.Len() != 0 || want.Len() != 0 {
				t.Fatalf("%v in field %d: %d bytes written, want none", bad, field, got.Len())
			}
			if field == 0 {
				continue
			}
			inst := &moldable.Instance{M: 2, Tasks: []moldable.Task{stream[0].Task, a.Task}}
			err = WriteInstance(&got, inst)
			wantErr = oracleWriteInstance(&want, inst)
			if err == nil || wantErr == nil || err.Error() != wantErr.Error() || got.Len() != 0 {
				t.Fatalf("%v in instance field %d: error %v and %d bytes, want the oracle's %v and none", bad, field, err, got.Len(), wantErr)
			}
		}
	}
}

// TestReadInstanceMatchesOracle reads instance files inside the strict
// grammar with the codec and with the oracle: same instance, or the same
// error (any text after the "cannot decode" prefix where both refuse the
// input as malformed). The hand-spelled inputs hold the grammar the
// reader promises beyond the writer's spelling: any member order,
// compact white space, escaped string values, exponent numbers and a
// null "times".
func TestReadInstanceMatchesOracle(t *testing.T) {
	gen, err := Generate(Config{Kind: Mixed, M: 16, N: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	gen.Tasks[0].Name = "first <&>"
	var file bytes.Buffer
	if err := WriteInstance(&file, gen); err != nil {
		t.Fatal(err)
	}
	inputs := []string{
		file.String(),
		"not json",
		"",
		`{"version":99,"processors":2,"tasks":[]}`,
		`{"version":1,"processors":2,"tasks":[]}`,
		`{"version":1,"processors":0,"tasks":[{"id":1,"weight":1,"times":[2]}]}`,
		`{"version":1,"processors":2,"tasks":[{"id":1,"weight":1,"times":[4,3,2,1]}]}`,
		`{"version":1,"processors":2,"tasks":[{"id":1,"weight":1,"times":[2]},{"id":1,"weight":1,"times":[2]}]}`,
		`{"version":1,"processors":2,"tasks":[{"id":1,"weight":-1,"times":[2]}]}`,
		`{"version":1,"processors":2,"tasks":[{"id":1.0,"weight":1,"times":[2]}]}`,
		`{"version":1,"processors":2,"tasks":[{"id":1,"weight":1,"times":["2"]}]}`,
		`{"version":1,"processors":2,"tasks":[{"id":1,"weight":1,"times":[2]}`,
		`{"tasks":[{"times":[3,2],"weight":2,"name":"b","id":7}],"processors":4,"version":1}`,
		"{ \"version\" : 1 ,\n\t\"processors\":4, \"tasks\" : [ { \"id\" : 1 , \"weight\" : 1 , \"times\" : [ 2 , 1 ] } ] }\n\n",
		`{"version":1,"processors":2,"tasks":[{"id":1,"name":"caf\u00e9 \"q\" \/ \ud83d\ude00\n","weight":1,"times":[2]}]}`,
		`{"version":1,"processors":2,"tasks":[{"id":-3,"weight":1E5,"times":[2.5e-3,1e+2,0.5E1]}]}`,
		`{"version":1,"processors":2,"tasks":[{"id":1,"weight":1,"times":null}]}`,
	}
	for _, in := range inputs {
		got, err := readInstance([]byte(in))
		want, wantErr := oracleReadInstance(strings.NewReader(in))
		if msg := sameOutcome(err, wantErr, decodeInstance); msg != "" {
			t.Fatalf("%.60q: %s", in, msg)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%.60q: the codec read %+v, the oracle %+v", in, got, want)
		}
	}
	// The oracle panicked here until moldable.NewInstance stopped slicing
	// to a negative machine size; both must report the instance's error.
	_, err = readInstance([]byte(`{"version":1,"processors":-1,"tasks":[{"id":1,"weight":1,"times":[2]}]}`))
	if want := "moldable: instance needs at least one processor, got -1"; err == nil || err.Error() != want {
		t.Fatalf("negative processor count: error %v, want %q", err, want)
	}
	_, err = readInstance([]byte(inputs[len(inputs)-1]))
	if want := "moldable: task 1 has an empty processing-time vector"; err == nil || err.Error() != want {
		t.Fatalf("null times: error %v, want %q", err, want)
	}
}

// TestReadArrivalsMatchesOracle holds the arrival reader to the oracle,
// both ways, on hand-spelled streams inside the strict grammar: members
// in any order ("submit" last), compact and loose white space, escaped
// string values, exponent numbers and a null "times".
func TestReadArrivalsMatchesOracle(t *testing.T) {
	inputs := []string{
		`{"arrivals":[{"times":[3,2],"weight":2,"name":"a","id":7,"submit":1.5}],"processors":4,"version":1}`,
		"{ \"version\" : 1 ,\n\t\"processors\":4, \"arrivals\" : [ { \"submit\" : 0 , \"id\" : 1 , \"weight\" : 1 , \"times\" : [ 2 , 1 ] } ] }\r\n",
		`{"version":1,"processors":2,"arrivals":[{"submit":0,"id":1,"name":"caf\u00e9 \"q\" \/ \ud83d\ude00\n","weight":1,"times":[2]}]}`,
		`{"version":1,"processors":2,"arrivals":[{"submit":1E5,"id":-3,"weight":2.5e-3,"times":[1e+2,0.5E1]},{"submit":1.5e5,"id":4,"weight":1,"times":[2]}]}`,
		`{"version":1,"processors":2,"arrivals":[{"submit":0,"id":1,"weight":1,"times":null}]}`,
		`{"version":1,"processors":2,"arrivals":[{"submit":2,"id":1,"weight":1,"times":[2]},{"submit":1,"id":2,"weight":1,"times":[2]}]}`,
		`{"version":2,"processors":2,"arrivals":[]}`,
	}
	for _, in := range inputs {
		got, m, err := readArrivals([]byte(in))
		want, wantM, wantErr := oracleReadArrivals(strings.NewReader(in))
		if msg := sameOutcome(err, wantErr, decodeArrivals); msg != "" {
			t.Fatalf("%.60q: %s", in, msg)
		}
		if err == nil && (m != wantM || !sameArrivals(got, want)) {
			t.Fatalf("%.60q: the codec read %d %+v, the oracle %d %+v", in, m, got, wantM, want)
		}
	}
	for i, want := range []string{
		"workload: arrival 0: moldable: task 1 has an empty processing-time vector",
		"workload: arrival 1 breaks submission order (1 after 2)",
		"workload: unsupported arrivals format version 2 (want 1)",
	} {
		if _, _, err := readArrivals([]byte(inputs[4+i])); err == nil || err.Error() != want {
			t.Fatalf("%.60q: error %v, want %q", inputs[4+i], err, want)
		}
	}
}

const (
	decodeArrivals = "workload: cannot decode arrivals: "
	decodeInstance = "workload: cannot decode instance: "
)

// lenientInputs names the seed corpus entries of FuzzReadArrivals and
// FuzzReadInstance that each hold one leniency of encoding/json: a value
// under an unknown member nested deep, escaped, case-folded, unknown and
// repeated member names, nulls, invalid UTF-8 and bytes after the
// document.
var lenientInputs = []string{
	"deep-ok", "escaped-keys", "escaped-name", "fold-keys",
	"null-element", "null-times", "null-top", "nulls",
	"repeated-hidden", "repeated-keys", "repeated-reset", "repeated-times",
	"trailing-bytes", "unknown-keys",
}

// TestReadRejectsLenientInput: both readers refuse each leniency as
// malformed, naming where.
func TestReadRejectsLenientInput(t *testing.T) {
	type input struct {
		name string
		data []byte
		read func([]byte) error
	}
	readA := func(data []byte) error { _, _, err := readArrivals(data); return err }
	readI := func(data []byte) error { _, err := readInstance(data); return err }
	inputs := []input{
		{"case-folded instance", []byte(`{"VERSION":1,"Processors":2,"TASKS":[{"ID":1,"Weight":1,"Times":[2],"submit":"ignored"}]}`), readI},
		{"null instance", []byte("null"), readI},
		{"null task list", []byte(`{"version":1,"processors":2,"tasks":null}`), readI},
		{"instance with an unknown member and trailing bytes", []byte(`{"version":1,"processors":2,"tasks":[{"id":1,"weight":1,"times":[2]}],"arrivals":[1,2]} trailing`), readI},
	}
	for _, name := range lenientInputs {
		inputs = append(inputs,
			input{"FuzzReadArrivals/" + name, corpusEntry(t, "FuzzReadArrivals", name), readA},
			input{"FuzzReadInstance/" + name, corpusEntry(t, "FuzzReadInstance", name), readI})
	}
	for _, in := range inputs {
		err := in.read(in.data)
		if err == nil || !strings.HasPrefix(err.Error(), "workload: cannot decode ") {
			t.Errorf("%s: error %v, want a decode failure", in.name, err)
		} else if !strings.Contains(err.Error(), " at offset ") {
			t.Errorf("%s: error %v names no offset", in.name, err)
		}
	}
}

// corpusEntry reads the bytes of a one-value []byte seed corpus file.
func corpusEntry(t *testing.T, target, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", target, name))
	if err != nil {
		t.Fatal(err)
	}
	_, body, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n[]byte(")
	data, err := strconv.Unquote(strings.TrimSuffix(body, ")"))
	if !ok || err != nil {
		t.Fatalf("%s/%s is not a []byte corpus entry: %v", target, name, err)
	}
	return []byte(data)
}

// TestReadArrivalsAllocs pins the allocations of loading a 200-job
// stream file: one time vector per task, plus the open file, the read
// buffer and the stream's slice (as it grows, then at its exact length),
// 220 in all, with or without the race detector. The encoding/json reader
// allocated 1,033 times here.
func TestReadArrivalsAllocs(t *testing.T) {
	arrivals, err := GenerateArrivals(ArrivalConfig{Workload: Config{Kind: Mixed, M: 16, N: 200, Seed: 5}, Rate: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "arrivals.json")
	if err := SaveArrivals(path, 16, arrivals); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := LoadArrivals(path); err != nil {
			t.Fatal(err)
		}
	})
	const pinned = 220
	if allocs > pinned {
		t.Fatalf("loading a 200-job stream allocates %v times, want at most %d", allocs, pinned)
	}
}
