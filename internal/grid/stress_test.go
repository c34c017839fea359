package grid

import (
	"encoding/json"
	"runtime"
	"testing"
)

// TestGridDeterminismStress is the repeatability stress of the whole
// stack: the 8-shard heterogeneous grid replays the same stream five
// times concurrently (at full GOMAXPROCS) and once sequentially, with and
// without a hostile fault plan, and every run must serialize to the same
// bytes. Run under -race in CI, this pins the bit-identical-replay
// invariant the serve layer's prefix rule depends on.
func TestGridDeterminismStress(t *testing.T) {
	jobs := stream(t, 120, 8)
	scenarios := []struct {
		name    string
		faulted bool
	}{
		{"fault-free", false},
		{"faulted", true},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			build := func(sequential bool) Config {
				specs := eightClusters(t)
				cfg := Config{Clusters: specs, Routing: LeastBacklog(), AdmitBacklog: 50, Sequential: sequential}
				if sc.faulted {
					cfg.Faults = testPlan(t, specs, 8)
				}
				return cfg
			}
			marshal := func(cfg Config) []byte {
				fed, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := fed.RunContext(t.Context(), jobs)
				if err != nil {
					t.Fatal(err)
				}
				data, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				return data
			}

			old := runtime.GOMAXPROCS(runtime.NumCPU())
			defer runtime.GOMAXPROCS(old)
			reference := marshal(build(false))
			if sc.faulted {
				var rep Metrics
				probe, err := New(build(false))
				if err != nil {
					t.Fatal(err)
				}
				r, err := probe.RunContext(t.Context(), jobs)
				if err != nil {
					t.Fatal(err)
				}
				rep = r.Metrics
				if rep.Killed == 0 && rep.Migrated == 0 {
					t.Fatal("faulted stress scenario injected nothing")
				}
			}
			for i := 0; i < 4; i++ {
				if got := marshal(build(false)); string(got) != string(reference) {
					t.Fatalf("concurrent replay %d differs from the first", i+2)
				}
			}
			if got := marshal(build(true)); string(got) != string(reference) {
				t.Fatal("sequential replay differs from the concurrent ones")
			}
		})
	}
}
