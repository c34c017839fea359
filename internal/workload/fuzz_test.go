package workload

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadArrivals holds the arrival-stream codec to its encoding/json
// oracle (oracle_test.go) and to its contract:
//   - every input yields an error or a stream, never a panic;
//   - readArrivals fails exactly when the oracle fails, with the same
//     text, except that on malformed input only the "cannot decode" prefix
//     must agree; otherwise both return the same machine size and stream,
//     bit for bit;
//   - writeArrivals writes the oracle's bytes for every accepted stream,
//     and reading them back gives a deep-equal stream and machine size.
//
// The seed corpus in testdata/fuzz/FuzzReadArrivals holds a generated
// stream, an empty one, a newer version, a truncated file, a negative and
// an out-of-order submission and a task without times, plus one input
// per decoding quirk the codec shares with the oracle: unknown members
// (valid and not), case-folded and escaped member names, nulls, repeated
// members, bytes after the value, number grammar and nesting depth. Smoke
// it with:
// go test -run '^$' -fuzz '^FuzzReadArrivals$' -fuzztime 10s ./internal/workload
func FuzzReadArrivals(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		arrivals, m, err := readArrivals(data)
		want, wantM, wantErr := oracleReadArrivals(bytes.NewReader(data))
		if msg := sameOutcome(err, wantErr, "workload: cannot decode arrivals: "); msg != "" {
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

// sameOutcome describes how err departs from the oracle's want, or
// returns "". Both must fail or both succeed. A failure must carry the
// oracle's text, except that when the oracle could not decode the input
// the codec need only fail with the same prefix.
func sameOutcome(err, want error, decodePrefix string) string {
	switch {
	case err == nil && want == nil:
		return ""
	case err == nil || want == nil:
		return "codec error: " + errText(err) + "\noracle error: " + errText(want)
	case strings.HasPrefix(want.Error(), decodePrefix):
		if !strings.HasPrefix(err.Error(), decodePrefix) {
			return "codec error: " + err.Error() + "\nwant the prefix of the oracle's: " + want.Error()
		}
	case err.Error() != want.Error():
		return "codec error: " + err.Error() + "\noracle error: " + want.Error()
	}
	return ""
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
		x, y := &a[i], &b[i]
		if !sameBits(x.Submit, y.Submit) || x.Task.ID != y.Task.ID || x.Task.Name != y.Task.Name ||
			!sameBits(x.Task.Weight, y.Task.Weight) || !sameTimes(x.Task.Times, y.Task.Times) {
			return false
		}
	}
	return true
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
