package workload

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadArrivals holds the arrival-stream reader to its contract: every
// input yields an error or a stream, never a panic, and an accepted stream
// round-trips — writing it with writeArrivals and reading that back gives
// a deep-equal stream and machine size. The seed corpus in
// testdata/fuzz/FuzzReadArrivals holds a generated stream, an empty one,
// a newer version, a truncated file, a negative and an out-of-order
// submission and a task without times. Smoke it with:
// go test -run '^$' -fuzz '^FuzzReadArrivals$' -fuzztime 10s ./internal/workload
func FuzzReadArrivals(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		arrivals, m, err := readArrivals(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeArrivals(&buf, m, arrivals); err != nil {
			t.Fatalf("writing an accepted stream: %v", err)
		}
		back, backM, err := readArrivals(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reading a written stream: %v\n%s", err, buf.Bytes())
		}
		if backM != m || !reflect.DeepEqual(arrivals, back) {
			t.Fatalf("the stream does not round-trip:\n%d %+v\n%d %+v\n%s", m, arrivals, backM, back, buf.Bytes())
		}
	})
}
