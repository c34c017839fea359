package trace

import (
	"bytes"
	"math"
	"testing"
)

// FuzzParse holds the SWF reader to its contract: every input yields an
// error or records whose times are all finite, never a panic, and accepted
// input round-trips — writing the records, parsing that back and writing
// again gives the same bytes. The seed corpus in testdata/fuzz/FuzzParse
// holds a two-job SWF file, a file written by Write, and records with an
// infinite and a NaN submit time. Smoke it with:
// go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/trace
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		records, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, r := range records {
			for _, v := range []float64{r.Submit, r.Wait, r.Run, r.ReqTime} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("job %d: accepted a non-finite time in %+v", r.JobID, r)
				}
			}
		}
		var first bytes.Buffer
		if err := Write(&first, records); err != nil {
			t.Fatalf("writing accepted records: %v", err)
		}
		back, err := Parse(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("parsing written records: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := Write(&second, back); err != nil {
			t.Fatalf("writing re-parsed records: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("the trace does not round-trip:\n--- first ---\n%s--- second ---\n%s", first.Bytes(), second.Bytes())
		}
	})
}
