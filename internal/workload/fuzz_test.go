package workload

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"bicriteria/internal/moldable"
)

// FuzzReadArrivals holds the arrival-stream codec to its contract and,
// one way, to its encoding/json oracle (oracle_test.go):
//   - every input yields an error or a stream, never a panic;
//   - a failure without the "cannot decode" prefix carries the oracle's
//     exact text; with it, the codec refuses what the oracle may forgive
//     (see io.go);
//   - whatever readArrivals accepts, the oracle reads to the same machine
//     size and stream, bit for bit;
//   - writeArrivals writes the oracle's bytes for every accepted stream,
//     and reading them back gives a deep-equal stream and machine size.
//
// The seed corpus in testdata/fuzz/FuzzReadArrivals holds a generated
// stream, an empty one, a newer version, a truncated file, a negative and
// an out-of-order submission and a task without times, the number grammar,
// and one input per leniency of encoding/json that the codec refuses
// (lenientInputs). Smoke it with:
// go test -run '^$' -fuzz '^FuzzReadArrivals$' -fuzztime 10s ./internal/workload
func FuzzReadArrivals(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		arrivals, m, err := readArrivals(data)
		want, wantM, wantErr := oracleReadArrivals(bytes.NewReader(data))
		if msg := agreesOneWay(err, wantErr, decodeArrivals); msg != "" {
			t.Fatal(msg)
		}
		if err != nil {
			return
		}
		if m != wantM || !sameArrivals(arrivals, want) {
			t.Fatalf("the codec and the oracle read different streams:\n%d %+v\n%d %+v", m, arrivals, wantM, want)
		}
		var buf, oracle bytes.Buffer
		if err := writeArrivals(&buf, m, arrivals); err != nil {
			t.Fatalf("writing an accepted stream: %v", err)
		}
		if err := oracleWriteArrivals(&oracle, m, arrivals); err != nil {
			t.Fatalf("the oracle writing an accepted stream: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), oracle.Bytes()) {
			t.Fatalf("the codec's bytes differ from the oracle's:\n%s\nvs\n%s", buf.Bytes(), oracle.Bytes())
		}
		back, backM, err := readArrivals(buf.Bytes())
		if err != nil {
			t.Fatalf("reading a written stream: %v\n%s", err, buf.Bytes())
		}
		if backM != m || !reflect.DeepEqual(arrivals, back) {
			t.Fatalf("the stream does not round-trip:\n%d %+v\n%d %+v\n%s", m, arrivals, backM, back, buf.Bytes())
		}
	})
}

// FuzzReadInstance holds the instance reader to the same contract against
// oracleReadInstance. Its seed corpus in testdata/fuzz/FuzzReadInstance
// holds a file `bicrit gen -instance` wrote and the instance spelling of
// each lenientInputs entry. Smoke it with:
// go test -run '^$' -fuzz '^FuzzReadInstance$' -fuzztime 10s ./internal/workload
func FuzzReadInstance(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		inst, err := readInstance(data)
		want, wantErr := oracleReadInstance(bytes.NewReader(data))
		if msg := agreesOneWay(err, wantErr, decodeInstance); msg != "" {
			t.Fatal(msg)
		}
		if err != nil {
			return
		}
		if inst.M != want.M || !sameTasks(inst.Tasks, want.Tasks) {
			t.Fatalf("the codec and the oracle read different instances:\n%+v\n%+v", inst, want)
		}
		var buf, oracle bytes.Buffer
		if err := WriteInstance(&buf, inst); err != nil {
			t.Fatalf("writing an accepted instance: %v", err)
		}
		if err := oracleWriteInstance(&oracle, inst); err != nil {
			t.Fatalf("the oracle writing an accepted instance: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), oracle.Bytes()) {
			t.Fatalf("the codec's bytes differ from the oracle's:\n%s\nvs\n%s", buf.Bytes(), oracle.Bytes())
		}
		back, err := readInstance(buf.Bytes())
		if err != nil {
			t.Fatalf("reading a written instance: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(inst, back) {
			t.Fatalf("the instance does not round-trip:\n%+v\n%+v\n%s", inst, back, buf.Bytes())
		}
	})
}

// agreesOneWay describes how the codec's err departs from the oracle's
// want, or returns "". The codec may fail with decodePrefix wherever it
// likes; any other failure must be the oracle's, text for text, and
// success must be the oracle's success.
func agreesOneWay(err, want error, decodePrefix string) string {
	switch {
	case err == nil && want != nil:
		return "the codec accepts what the oracle refuses: " + want.Error()
	case err == nil || strings.HasPrefix(err.Error(), decodePrefix):
		return ""
	case want == nil || err.Error() != want.Error():
		return "codec error: " + err.Error() + "\noracle error: " + errText(want)
	}
	return ""
}

// sameOutcome is agreesOneWay held both ways, for input inside the
// strict grammar: the codec refuses such input as malformed only where
// the oracle does too.
func sameOutcome(err, want error, decodePrefix string) string {
	if err != nil && strings.HasPrefix(err.Error(), decodePrefix) && (want == nil || !strings.HasPrefix(want.Error(), decodePrefix)) {
		return "the codec refuses as malformed what the oracle reads: " + err.Error() + "\noracle error: " + errText(want)
	}
	return agreesOneWay(err, want, decodePrefix)
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// sameArrivals compares two streams bit for bit: −0 is not 0, and a nil
// time vector is not an empty one.
func sameArrivals(a, b []Arrival) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i].Submit, b[i].Submit) || !sameTask(&a[i].Task, &b[i].Task) {
			return false
		}
	}
	return true
}

// sameTasks compares two task lists bit for bit, as sameArrivals does.
func sameTasks(a, b []moldable.Task) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameTask(&a[i], &b[i]) {
			return false
		}
	}
	return true
}

func sameTask(x, y *moldable.Task) bool {
	return x.ID == y.ID && x.Name == y.Name && sameBits(x.Weight, y.Weight) && sameTimes(x.Times, y.Times)
}

func sameTimes(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for k := range a {
		if !sameBits(a[k], b[k]) {
			return false
		}
	}
	return true
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
