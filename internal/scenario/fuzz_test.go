package scenario

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadScenario holds the scenario reader to its contract: every input
// yields an error or a scenario that validates, never a panic, and an
// accepted scenario round-trips — writing it and reading that back gives
// a deep-equal value. The seed corpus in testdata/fuzz/FuzzReadScenario
// holds a grid and a single-cluster file written by `bicrit gen`, an
// empty reservation list, an unknown field, a newer version, a
// truncated file and a written file followed by more bytes. Smoke it with:
// go test -run '^$' -fuzz '^FuzzReadScenario$' -fuzztime 10s ./internal/scenario
func FuzzReadScenario(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := readScenario(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := s.validate(); err != nil {
			t.Fatalf("accepted a scenario that does not validate: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteScenario(&buf, s); err != nil {
			t.Fatalf("writing an accepted scenario: %v", err)
		}
		back, err := readScenario(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reading a written scenario: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("the scenario does not round-trip:\n%+v\n%+v\n%s", s, back, buf.Bytes())
		}
	})
}
