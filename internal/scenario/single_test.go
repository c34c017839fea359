package scenario

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"bicriteria/internal/cluster"
	"bicriteria/internal/faults"
	"bicriteria/internal/grid"
)

// singleScenarios lists the single-topology scenarios the tests replay:
// the single rows of the compile matrix, the faulted single scenario of
// the trace tests, and the single-cluster scenarios cmd/bicrit pins in its
// goldens and determinism tests.
func singleScenarios() []compileRow {
	var rows []compileRow
	for _, r := range compileMatrixRows() {
		if r.s.Topology == TopologySingle {
			rows = append(rows, r)
		}
	}
	return append(rows,
		compileRow{"faulted-single", faultedSingleScenario()},
		compileRow{"cluster-report-golden", Scenario{
			Version:   Version,
			Seed:      5,
			Topology:  TopologySingle,
			Clusters:  []Cluster{{Machines: 32, Reservations: []Reservation{{Procs: 8, Start: 10, End: 30}}}},
			Workload:  Workload{Kind: "mixed", Jobs: 60},
			Arrivals:  Arrivals{Rate: 3},
			Batch:     Batch{Policy: "adaptive"},
			Objective: Objective{Kind: "combined"},
			Noise:     0.2,
		}},
		compileRow{"cluster-report-faults-golden", Scenario{
			Version:  Version,
			Seed:     3,
			Topology: TopologySingle,
			Clusters: []Cluster{{Machines: 16}},
			Workload: Workload{Kind: "mixed", Jobs: 80},
			Arrivals: Arrivals{Rate: 8},
			Faults:   &Faults{Seed: 3, MTBF: 10, Repair: 4, Replan: "checkpoint"},
		}},
		compileRow{"deterministic-across-modes", Scenario{
			Version:   Version,
			Seed:      1,
			Topology:  TopologySingle,
			Clusters:  []Cluster{{Machines: 16, Reservations: []Reservation{{Procs: 4, Start: 5, End: 20}}}},
			Workload:  Workload{Jobs: 40},
			Arrivals:  Arrivals{Rate: 4, Burst: 5},
			Objective: Objective{Kind: "combined", Alpha: 0.4},
			Noise:     0.25,
		}},
	)
}

// seededSingleScenarios is a seeded sample of single-cluster scenarios on
// 32 processors: every seed under three fault mixes, with shard outages,
// node outages, a reservation, the portfolio race and runtime noise
// spread across them.
func seededSingleScenarios(seeds int) []compileRow {
	mixes := []struct {
		name   string
		faults *Faults
		racing *RacingSpec
		noise  float64
		res    []Reservation
	}{
		{"shard", &Faults{ShardMTBF: 300}, nil, 0.2, nil},
		{"node+shard", &Faults{MTBF: 60, Repair: 5, ShardMTBF: 150, ShardRepair: 15, Replan: "checkpoint"},
			&RacingSpec{Cutoff: 1.5}, 0, []Reservation{{Procs: 8, Start: 20, End: 60}}},
		{"reserved", nil, &RacingSpec{Cutoff: 2, Bandit: true}, 0.3, []Reservation{{Procs: 12, Start: 10, End: 40}}},
	}
	policies := []string{"idle", "interval", "adaptive"}
	var rows []compileRow
	for seed := int64(1); seed <= int64(seeds); seed++ {
		for _, mix := range mixes {
			rows = append(rows, compileRow{fmt.Sprintf("seed%d/%s", seed, mix.name), Scenario{
				Version:  Version,
				Seed:     seed,
				Topology: TopologySingle,
				Clusters: []Cluster{{Machines: 32, Reservations: mix.res}},
				Workload: Workload{Kind: "mixed", Jobs: 150},
				Arrivals: Arrivals{Rate: 4, Burst: 2},
				Batch:    Batch{Policy: policies[seed%3]},
				Noise:    mix.noise,
				Racing:   mix.racing,
				Faults:   mix.faults,
			}})
		}
	}
	return rows
}

// compiledParts returns what Compile builds a scenario from: the job
// stream, the fault plan and the grid configuration.
func compiledParts(t *testing.T, s Scenario) ([]cluster.Job, *faults.Plan, grid.Config) {
	t.Helper()
	s = s.Normalized()
	jobs, err := buildJobs(s)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := buildFaults(s, jobs)
	if err != nil {
		t.Fatal(err)
	}
	gcfg, err := gridConfig(s, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	return jobs, plan, gcfg
}

// engineReport replays a single-cluster scenario through one cluster
// engine, configured from shard 0 of the scenario's grid configuration
// the way the federation configures its shards.
func engineReport(t *testing.T, s Scenario) *cluster.Report {
	t.Helper()
	jobs, plan, gcfg := compiledParts(t, s)
	spec := gcfg.Clusters[0]
	eng, err := cluster.New(cluster.Config{
		M:            spec.M,
		Portfolio:    spec.Portfolio,
		Objective:    spec.Objective,
		Policy:       spec.Policy,
		Reservations: spec.Reservations,
		Perturb:      spec.Perturb,
		Racing:       spec.Racing,
		Outages:      plan.ClusterWindows(0, spec.M),
		Replan:       gcfg.Replan,
		MaxRetries:   gcfg.MaxRetries,
	})
	if err != nil {
		t.Fatal(err)
	}
	session := eng.NewSession(context.Background())
	if err := session.Feed(jobs...); err != nil {
		t.Fatal(err)
	}
	rep, err := session.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// oneShardReport replays a single-cluster scenario through a one-shard
// grid federation built from the scenario's grid configuration.
func oneShardReport(t *testing.T, s Scenario) *cluster.Report {
	t.Helper()
	jobs, _, gcfg := compiledParts(t, s)
	fed, err := grid.New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fed.RunContext(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Clusters[0]
}

// TestSingleIsOneShardGrid is the differential oracle of the single
// topology: every single-cluster scenario of the tests, plus a seeded
// sample, replays to the same cluster.Report — per-job starts and ends,
// batches, kills, losses and metrics — through one cluster engine,
// through a one-shard grid, and through the compiled runner.
func TestSingleIsOneShardGrid(t *testing.T) {
	seeds := 34
	if testing.Short() {
		seeds = 4
	}
	rows := append(singleScenarios(), seededSingleScenarios(seeds)...)
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			s := r.s
			s.Sequential = true
			want := engineReport(t, s)
			if got := oneShardReport(t, s); !reflect.DeepEqual(got, want) {
				t.Fatalf("one-shard grid differs from the cluster engine: makespan %g vs %g, %d vs %d batches, %d vs %d kills",
					got.Metrics.Makespan, want.Metrics.Makespan, len(got.Batches), len(want.Batches), got.Metrics.Killed, want.Metrics.Killed)
			}
			run, err := Compile(s)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := run.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep.Cluster, want) {
				t.Fatalf("compiled runner differs from the cluster engine: makespan %g vs %g",
					rep.Cluster.Metrics.Makespan, want.Metrics.Makespan)
			}
		})
	}
}

// TestGridReservationsChecked replays a noisy, faulted grid whose shards
// both carry reservations — the run passes the realized-trace check on
// every shard — then moves one placement of the second shard onto a
// reserved processor inside its window, which the check must name.
func TestGridReservationsChecked(t *testing.T) {
	s := Scenario{
		Version:  Version,
		Seed:     4,
		Topology: TopologyGrid,
		Clusters: []Cluster{
			{Machines: 16, Reservations: []Reservation{{Procs: 4, Start: 5, End: 25}}},
			{Machines: 8, Reservations: []Reservation{{Procs: 2, Start: 10, End: 30}}},
		},
		Workload: Workload{Kind: "mixed", Jobs: 60},
		Arrivals: Arrivals{Rate: 6},
		Noise:    0.2,
		Faults:   &Faults{MTBF: 40, Repair: 4},
	}
	run, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := run.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	specs := run.(*runner).cfg.Clusters
	if err := checkReservations(specs, rep.Grid); err != nil {
		t.Fatal(err)
	}
	crep := rep.Grid.Clusters[1]
	if len(crep.Schedule.Assignments) == 0 || len(crep.Blocked[0]) == 0 {
		t.Fatal("second shard ran nothing or blocked no processor; the check is vacuous")
	}
	a := &crep.Schedule.Assignments[0]
	a.Start = 10
	a.Procs = append([]int(nil), a.Procs...)
	a.Procs[0] = crep.Blocked[0][0]
	err = checkReservations(specs, rep.Grid)
	if err == nil || !strings.Contains(err.Error(), "cluster 1") {
		t.Fatalf("a placement on a reserved processor passed the check: %v", err)
	}
}
