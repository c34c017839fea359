package flight

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzReadJSONL holds the flight JSONL decoder to its contract: every
// input yields an error or a recorder, never a panic, and an accepted
// input round-trips — writing the recorder, reading that back and writing
// again gives the same bytes, whatever order the written events are read
// back in (the recorder's order is total). The seed corpus in
// testdata/fuzz/FuzzReadJSONL holds a recorded faulted-run trace, a
// header-only trace, a newer format version and a truncated line. Smoke
// it with: go test -run '^$' -fuzz FuzzReadJSONL -fuzztime 10s ./internal/flight
func FuzzReadJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, job := range r.Jobs() {
			r.Timeline(job)
		}
		var first bytes.Buffer
		if err := r.WriteJSONL(&first); err != nil {
			t.Fatalf("writing an accepted trace: %v", err)
		}
		if !IsTrace(first.Bytes()) {
			t.Fatal("IsTrace rejects a written trace")
		}
		lines := bytes.SplitAfter(first.Bytes(), []byte("\n"))
		reversed := slices.Clone(lines[1:])
		slices.Reverse(reversed)
		reversed = append(lines[:1:1], reversed...)
		for _, written := range [][]byte{first.Bytes(), bytes.Join(reversed, nil)} {
			back, err := ReadJSONL(bytes.NewReader(written))
			if err != nil {
				t.Fatalf("reading a written trace: %v", err)
			}
			var second bytes.Buffer
			if err := back.WriteJSONL(&second); err != nil {
				t.Fatalf("writing a re-read trace: %v", err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("the trace does not round-trip:\n--- first ---\n%s--- second ---\n%s", first.Bytes(), second.Bytes())
			}
		}
	})
}
