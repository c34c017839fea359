package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"bicriteria/internal/cluster"
	"bicriteria/internal/faults"
	"bicriteria/internal/grid"
	"bicriteria/internal/workload"
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
			info := run.Info()
			if info.Topology != s.Topology {
				t.Fatalf("runner topology %q, want %q", info.Topology, s.Topology)
			}
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
	runCompileRows(t, compileMatrixRows())
}

// compileMatrixRows is the topology × batch policy × faults table of
// TestCompileMatrix.
func compileMatrixRows() []compileRow {
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
	return rows
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

// TestCompileRejectsNonFiniteTrace pins that an SWF record with a NaN or
// infinite submit time fails at Compile under arrivals.trace, naming its
// line, instead of replaying to an infinite makespan or failing at Run.
func TestCompileRejectsNonFiniteTrace(t *testing.T) {
	for _, submit := range []string{"Inf", "NaN"} {
		path := filepath.Join(t.TempDir(), "jobs.swf")
		swf := "; two jobs\n0 0 0 10 2 -1 -1 2 10 -1 1\n1 " + submit + " 0 10 2 -1 -1 2 10 -1 1\n"
		if err := os.WriteFile(path, []byte(swf), 0o644); err != nil {
			t.Fatal(err)
		}
		s := base()
		s.Arrivals = Arrivals{Trace: path}
		_, err := Compile(s)
		var verr *ValidationError
		if !errors.As(err, &verr) || verr.Field != "arrivals.trace" || !strings.Contains(verr.Msg, "line 3") {
			t.Fatalf("submit %s: got %v, want a *ValidationError on arrivals.trace naming line 3", submit, err)
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

	// Kills: a heavily faulted single-cluster scenario must stream them
	// with their batches.
	fr, err := Compile(faultedSingleScenario())
	if err != nil {
		t.Fatal(err)
	}
	kills := 0
	fr.Observe(Observer{Batch: func(c int, br cluster.BatchReport) {
		for _, k := range br.KillEvents {
			kills++
			if k.Time < k.Start {
				t.Errorf("kill of task %d precedes its start: %v < %v", k.TaskID, k.Time, k.Start)
			}
		}
	}})
	frep, err := fr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if kills != frep.Cluster.Metrics.Killed {
		t.Fatalf("observed %d kills, report has %d", kills, frep.Cluster.Metrics.Killed)
	}
	if kills == 0 {
		t.Fatal("fault scenario produced no kills; the observer path is untested")
	}
}

// TestLogObserver pins the records the log observer writes on a faulted
// grid run: one "batch committed" per batch of the report, each followed
// directly by one "job killed" per kill of that batch, and one "job
// migrated" per migrated decision, in the report's decision order.
func TestLogObserver(t *testing.T) {
	r, err := Compile(traceScenario(false))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	r.Observe(LogObserver(slog.New(slog.NewJSONHandler(&buf, nil))))
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	type record struct {
		Msg       string  `json:"msg"`
		Cluster   int     `json:"cluster"`
		Batch     int     `json:"batch"`
		Job       int     `json:"job"`
		Killed    int     `json:"killed"`
		ToCluster int     `json:"to_cluster"`
		T         float64 `json:"t"`
	}
	var records []record
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var rec record
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		records = append(records, rec)
	}

	batches, kills := 0, 0
	var migrated []grid.Decision
	for i := 0; i < len(records); i++ {
		switch rec := records[i]; rec.Msg {
		case "batch committed":
			batches++
			br := rep.Grid.Clusters[rec.Cluster].Batches[rec.Batch]
			if rec.Killed != len(br.KillEvents) {
				t.Fatalf("batch %d/%d logs killed=%d, the report has %d kills", rec.Cluster, rec.Batch, rec.Killed, len(br.KillEvents))
			}
			for _, k := range br.KillEvents {
				i++
				if i == len(records) {
					t.Fatalf("the log ends before the kill of job %d in batch %d/%d", k.TaskID, rec.Cluster, rec.Batch)
				}
				got := records[i]
				if got.Msg != "job killed" || got.Cluster != rec.Cluster || got.Batch != k.Batch || got.Job != k.TaskID {
					t.Fatalf("record %d after batch %d/%d = %+v, want the kill of job %d", i, rec.Cluster, rec.Batch, got, k.TaskID)
				}
				kills++
			}
		case "job killed":
			t.Fatalf("record %d is a kill that does not follow its batch: %+v", i, rec)
		case "job migrated":
			migrated = append(migrated, grid.Decision{JobID: rec.Job, Cluster: rec.ToCluster, Release: rec.T})
		default:
			t.Fatalf("unexpected record %+v", rec)
		}
	}

	wantBatches, wantKills := 0, 0
	for _, crep := range rep.Grid.Clusters {
		wantBatches += len(crep.Batches)
		wantKills += crep.Metrics.Killed
	}
	var wantMigrated []grid.Decision
	for _, d := range rep.Grid.Decisions {
		if d.Migrated {
			wantMigrated = append(wantMigrated, grid.Decision{JobID: d.JobID, Cluster: d.Cluster, Release: d.Release})
		}
	}
	if batches != wantBatches || kills != wantKills {
		t.Fatalf("logged %d batches and %d kills, the report has %d and %d", batches, kills, wantBatches, wantKills)
	}
	if kills == 0 || len(wantMigrated) == 0 {
		t.Fatalf("the run has %d kills and %d migrations; the log path is untested", kills, len(wantMigrated))
	}
	if !reflect.DeepEqual(migrated, wantMigrated) {
		t.Fatalf("logged migrations %+v, the report's migrated decisions are %+v", migrated, wantMigrated)
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

// TestFaultPlanMatchesCompile pins the one horizon estimate: a faulted
// scenario without a horizon compiles to the plan faultPlan builds for
// the same stream, derived fault seed and cluster sizes. It also pins
// Runner.Jobs: the compiled stream is the arrival file's, in file order.
func TestFaultPlanMatchesCompile(t *testing.T) {
	arrivals, err := workload.GenerateArrivals(workload.ArrivalConfig{
		Workload: workload.Config{Kind: workload.Mixed, M: 16, N: 60, Seed: 3},
		Rate:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "arrivals.json")
	if err := workload.SaveArrivals(path, 16, arrivals); err != nil {
		t.Fatal(err)
	}
	const seed = 5
	runner, err := Compile(Scenario{
		Seed:     seed,
		Clusters: []Cluster{{Machines: 16}, {Machines: 8}},
		Arrivals: Arrivals{File: path},
		Faults:   &Faults{MTBF: 30, Repair: 4, ShardMTBF: 90, ShardRepair: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs := cluster.JobsFromArrivals(arrivals)
	if !reflect.DeepEqual(runner.Jobs(), jobs) {
		t.Fatal("Runner.Jobs differs from the arrival file's stream")
	}
	want, err := faultPlan(faults.Config{
		Seed:            seed ^ FaultSeedSalt,
		Clusters:        []int{16, 8},
		MTBF:            30,
		RepairMean:      4,
		ShardMTBF:       90,
		ShardRepairMean: 9,
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	got := runner.Info().Plan
	if len(got.Nodes) == 0 || len(got.Shards) == 0 {
		t.Fatalf("plan has %d node and %d shard outages; want both kinds", len(got.Nodes), len(got.Shards))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("compiled plan differs from faultPlan:\n%+v\nvs\n%+v", got, want)
	}
}
