package serve

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
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

// FuzzRestoreSnapshot holds the snapshot reader a restarting server runs
// to its contract: every file is restored or refused with an error, never
// a panic, and a restored snapshot round-trips — written back by
// writeSnapshot and restored by a second server, it gives the same
// stream, virtual clock and counters. The seed corpus in
// testdata/fuzz/FuzzRestoreSnapshot holds a snapshot writeSnapshot wrote,
// plus truncated, newer-version, negative-clock, release-past-clock,
// duplicate-ID and negative-counter files. Smoke it with:
// go test -run '^$' -fuzz '^FuzzRestoreSnapshot$' -fuzztime 10s ./internal/serve
func FuzzRestoreSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "snapshot.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// A frozen clock: the restored server's virtual clock stays at the
		// snapshot's, so the one it writes back carries the same clock.
		clock := newFakeClock()
		cfg := Config{
			Grid:             gridConfig(),
			RefreshInterval:  -1,
			SnapshotInterval: -1,
			SnapshotPath:     path,
			Clock:            clock.now,
		}
		a, err := NewServer(cfg)
		if err != nil {
			return
		}
		if err := a.writeSnapshot(); err != nil {
			t.Fatalf("writing back a restored snapshot: %v", err)
		}
		b, err := NewServer(cfg)
		if err != nil {
			t.Fatalf("restoring a snapshot written back: %v", err)
		}
		if !reflect.DeepEqual(a.stream, b.stream) {
			t.Fatalf("the stream does not round-trip:\n%+v\n%+v", a.stream, b.stream)
		}
		if a.now() != b.now() {
			t.Fatalf("the virtual clock does not round-trip: %g, then %g", a.now(), b.now())
		}
		if a.counters != b.counters {
			t.Fatalf("the counters do not round-trip: %+v, then %+v", a.counters, b.counters)
		}
	})
}
