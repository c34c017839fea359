package serve

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// FuzzDecodeSpecs holds the POST /jobs body reader to its contract: every
// input yields an error or job specs, never a panic; a spec that validates
// has finite positive times and a finite non-negative weight; and accepted
// specs round-trip — marshalling them as a bare array and decoding that
// gives a deep-equal value. The seed corpus in testdata/fuzz/FuzzDecodeSpecs
// holds one job object, a bare array, a {"jobs": [...]} wrapper, an empty
// wrapper, a whitespace-only body and a 1e999 time. Smoke it with:
// go test -run '^$' -fuzz '^FuzzDecodeSpecs$' -fuzztime 10s ./internal/serve
func FuzzDecodeSpecs(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		specs, err := decodeSpecs(body)
		if err != nil {
			return
		}
		for _, spec := range specs {
			task := spec.task()
			if task.Validate() != nil {
				continue
			}
			if math.IsNaN(task.Weight) || math.IsInf(task.Weight, 0) || task.Weight < 0 {
				t.Fatalf("job %d: validated weight %g", task.ID, task.Weight)
			}
			for _, p := range task.Times {
				if math.IsNaN(p) || math.IsInf(p, 0) || p <= 0 {
					t.Fatalf("job %d: validated time %g", task.ID, p)
				}
			}
		}
		data, err := json.Marshal(specs)
		if err != nil {
			t.Fatalf("marshalling accepted specs: %v", err)
		}
		back, err := decodeSpecs(data)
		if err != nil {
			t.Fatalf("decoding re-marshalled specs: %v\n%s", err, data)
		}
		if !reflect.DeepEqual(specs, back) {
			t.Fatalf("the specs do not round-trip:\n%+v\n%s\n%+v", specs, data, back)
		}
	})
}
