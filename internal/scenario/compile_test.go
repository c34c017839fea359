package scenario

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"bicriteria/internal/cluster"
	"bicriteria/internal/grid"
)

// compileRow is one named scenario of a compile-and-run table.
type compileRow struct {
	name string
	s    Scenario
}

// runCompileRows compiles and runs every row as a parallel subtest and
// checks the report shape matches the topology. Every row has 30 jobs.
func runCompileRows(t *testing.T, rows []compileRow) {
	t.Helper()
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			s := r.s
			run, err := Compile(s)
			if err != nil {
				t.Fatal(err)
			}
			if run.Topology() != s.Topology {
				t.Fatalf("runner topology %q, want %q", run.Topology(), s.Topology)
			}
			info := run.Info()
			if info.Jobs != 30 {
				t.Fatalf("info jobs %d, want 30", info.Jobs)
			}
			if (info.Plan != nil) != (s.Faults != nil) {
				t.Fatalf("plan presence %v does not match faults section %v", info.Plan != nil, s.Faults != nil)
			}
			rep, err := run.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if rep.Topology != s.Topology || rep.Jobs != 30 {
				t.Fatalf("report header %q/%d", rep.Topology, rep.Jobs)
			}
			switch s.Topology {
			case TopologySingle:
				if rep.Cluster == nil || rep.Grid != nil {
					t.Fatal("single report must carry exactly the cluster half")
				}
			case TopologyGrid:
				if rep.Grid == nil || rep.Cluster != nil {
					t.Fatal("grid report must carry exactly the grid half")
				}
			}
			if rep.Makespan() <= 0 || rep.Utilization() <= 0 {
				t.Fatalf("degenerate metrics: makespan %g, utilization %g", rep.Makespan(), rep.Utilization())
			}
		})
	}
}

// compileGrid is the two-shard grid of the compile tables.
var compileGrid = []Cluster{{Machines: 16}, {Machines: 8}}

// TestCompileMatrix compiles and runs every topology × batch policy ×
// faults combination and checks the report shape matches the topology.
func TestCompileMatrix(t *testing.T) {
	topologies := []struct {
		name     string
		topology Topology
		clusters []Cluster
	}{
		{"single", TopologySingle, []Cluster{{Machines: 16}}},
		{"grid", TopologyGrid, compileGrid},
	}
	policies := []string{"idle", "interval", "adaptive"}
	faultSections := []struct {
		name   string
		faults *Faults
	}{
		{"no-faults", nil},
		{"node-faults", &Faults{MTBF: 12, Repair: 4}},
		{"shard-faults", &Faults{MTBF: 15, ShardMTBF: 60, Replan: "checkpoint"}},
	}
	var rows []compileRow
	for _, topo := range topologies {
		for _, policy := range policies {
			for _, fs := range faultSections {
				rows = append(rows, compileRow{topo.name + "/" + policy + "/" + fs.name, Scenario{
					Version:  Version,
					Seed:     3,
					Topology: topo.topology,
					Clusters: topo.clusters,
					Workload: Workload{Kind: "mixed", Jobs: 30},
					Arrivals: Arrivals{Rate: 5},
					Batch:    Batch{Policy: policy},
					Faults:   fs.faults,
				}})
			}
		}
	}
	runCompileRows(t, rows)
}

// TestCompileRoutingPolicies compiles and runs a noisy grid stream under
// every routing policy.
func TestCompileRoutingPolicies(t *testing.T) {
	var rows []compileRow
	for _, routing := range []string{"round-robin", "least-backlog", "lower-bound", "moldability"} {
		rows = append(rows, compileRow{routing, Scenario{
			Version: Version, Seed: 3, Topology: TopologyGrid, Clusters: compileGrid,
			Workload: Workload{Kind: "mixed", Jobs: 30},
			Arrivals: Arrivals{Rate: 4},
			Routing:  Routing{Policy: routing},
			Noise:    0.2,
		}})
	}
	runCompileRows(t, rows)
}

// TestCompileHeavyTailedArrivals compiles and runs a grid stream under
// both heavy-tailed interarrival laws with lognormal runtimes.
func TestCompileHeavyTailedArrivals(t *testing.T) {
	var rows []compileRow
	for _, law := range []string{"lognormal", "weibull"} {
		rows = append(rows, compileRow{law, Scenario{
			Version: Version, Seed: 3, Topology: TopologyGrid, Clusters: compileGrid,
			Workload: Workload{Kind: "mixed", Jobs: 30},
			Arrivals: Arrivals{Rate: 4, Interarrival: law, RuntimeTail: "lognormal"},
			Routing:  Routing{Policy: "round-robin"},
		}})
	}
	runCompileRows(t, rows)
}

// TestCompileRejects pins that Compile validates eagerly: every bad spec
// fails before Run with a *ValidationError.
func TestCompileRejects(t *testing.T) {
	bad := []func(*Scenario){
		func(s *Scenario) { s.Clusters = nil },
		func(s *Scenario) { s.Workload.Kind = "nope" },
		func(s *Scenario) { s.Arrivals.Rate = -2 },
		func(s *Scenario) { s.Batch.Policy = "cron" },
		func(s *Scenario) { s.Routing.Policy = "dice" },
		func(s *Scenario) { s.Noise = 2 },
		func(s *Scenario) { s.Faults = &Faults{MTBF: 10, Replan: "undo"} },
		func(s *Scenario) { s.Arrivals.File = "/definitely/not/here.json" },
	}
	for i, mutate := range bad {
		s := base()
		mutate(&s)
		_, err := Compile(s)
		if err == nil {
			t.Fatalf("case %d: bad scenario compiled", i)
		}
		var verr *ValidationError
		if !errors.As(err, &verr) {
			t.Fatalf("case %d: error is not a *ValidationError: %v", i, err)
		}
	}
}

// TestCompileEquivalentRunsAreDeterministic pins that a runner replays
// identically across Runs and across the sequential switch.
func TestCompileEquivalentRunsAreDeterministic(t *testing.T) {
	s := base()
	s.Noise = 0.2
	s.Faults = &Faults{MTBF: 20, Repair: 5}
	r1, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	first, err := r1.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	second, err := r1.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Grid.Metrics, second.Grid.Metrics) {
		t.Fatal("two runs of one runner differ")
	}
	s.Sequential = true
	r2, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	sequential, err := r2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Grid.Metrics, sequential.Grid.Metrics) {
		t.Fatal("concurrent and sequential scenario runs differ")
	}
}

// TestObserverStreamsEvents pins the Observer hooks: batches and
// decisions stream for a grid run, kills fire on a faulted single run.
func TestObserverStreamsEvents(t *testing.T) {
	s := base()
	r, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	batches, decisions := 0, 0
	r.Observe(Observer{
		Batch:    func(int, cluster.BatchReport) { mu.Lock(); batches++; mu.Unlock() },
		Decision: func(grid.Decision) { mu.Lock(); decisions++; mu.Unlock() },
	})
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	totalBatches := 0
	for _, crep := range rep.Grid.Clusters {
		totalBatches += len(crep.Batches)
	}
	if batches != totalBatches {
		t.Fatalf("observed %d batches, report has %d", batches, totalBatches)
	}
	if decisions != len(rep.Grid.Decisions) {
		t.Fatalf("observed %d decisions, report has %d", decisions, len(rep.Grid.Decisions))
	}

	// Kills: a heavily faulted single-cluster scenario must stream them.
	fs := Scenario{
		Version:  Version,
		Seed:     3,
		Topology: TopologySingle,
		Clusters: []Cluster{{Machines: 16}},
		Workload: Workload{Kind: "mixed", Jobs: 60},
		Arrivals: Arrivals{Rate: 8},
		Faults:   &Faults{MTBF: 8, Repair: 3},
	}
	fr, err := Compile(fs)
	if err != nil {
		t.Fatal(err)
	}
	kills := 0
	fr.Observe(Observer{Kill: func(c int, k cluster.KillEvent) {
		kills++
		if k.Time < k.Start {
			t.Errorf("kill of task %d precedes its start: %v < %v", k.TaskID, k.Time, k.Start)
		}
	}})
	frep, err := fr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if kills != len(frep.Cluster.Kills) {
		t.Fatalf("observed %d kills, report has %d", kills, len(frep.Cluster.Kills))
	}
	if kills == 0 {
		t.Fatal("fault scenario produced no kills; the observer path is untested")
	}
}

// TestRunContextCancellation aborts a compiled grid scenario mid-replay
// through the runner's context and checks for a prompt, wrapped return.
func TestRunContextCancellation(t *testing.T) {
	s := base()
	s.Workload.Jobs = 80
	r, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	r.Observe(Observer{Batch: func(int, cluster.BatchReport) { once.Do(cancel) }})
	done := make(chan error, 1)
	go func() {
		_, err := r.Run(ctx)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("cancelled scenario run never returned")
	}
}
