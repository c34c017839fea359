package bicriteria

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bicriteria/internal/cluster"
)

// TestFacadeReservations exercises the reservation-aware scheduling through
// the public API.
func TestFacadeReservations(t *testing.T) {
	inst, err := GenerateWorkload(WorkloadConfig{Kind: WorkloadMixed, M: 16, N: 20, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	reservations := []Reservation{
		{Name: "maintenance", Procs: 4, Start: 0, End: 5},
		{Name: "other", Procs: 6, Start: 8, End: 12},
	}
	res, err := ScheduleWithReservations(t.Context(), inst, reservations, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(inst, nil); err != nil {
		t.Fatalf("invalid schedule: %v", err)
	}
	if err := ValidateReservations(res.Schedule, reservations, res.Blocked); err != nil {
		t.Fatalf("reservation violated: %v", err)
	}
	if res.Schedule.Makespan() < res.DEMT.Schedule.Makespan()-1e-6 {
		t.Fatalf("reserved schedule cannot finish earlier than the unreserved plan")
	}
	// Reserving the whole machine must fail.
	if _, err := ScheduleWithReservations(t.Context(), inst, []Reservation{{Procs: 16, Start: 0, End: 100}}, nil); err == nil {
		t.Fatalf("full-machine reservation must fail")
	}
}

// TestFacadeTraceRoundTrip exercises the SWF interchange through the public
// API: schedule a workload, export it, and replay the exported file as the
// arrival trace of a scenario.
func TestFacadeTraceRoundTrip(t *testing.T) {
	inst, err := GenerateWorkload(WorkloadConfig{Kind: WorkloadCirne, M: 12, N: 15, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	res, err := DEMT(t.Context(), inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	records := ScheduleToTrace(inst, res.Schedule, nil)
	if len(records) != inst.N() {
		t.Fatalf("export lost jobs: %d records for %d tasks", len(records), inst.N())
	}

	var buf bytes.Buffer
	if err := WriteTrace(&buf, records); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), ";") {
		t.Fatalf("missing SWF header")
	}
	path := filepath.Join(t.TempDir(), "jobs.swf")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// Reconstruct moldable jobs from the rigid records and replay them
	// on-line.
	runner, err := Compile(Scenario{
		Clusters: []ScenarioCluster{{Machines: 12}},
		Arrivals: ScenarioArrivals{Trace: path},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runner.Run(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != inst.N() || rep.Cluster.Metrics.Jobs != inst.N() {
		t.Fatalf("replayed %d (%d completed) of %d exported jobs", rep.Jobs, rep.Cluster.Metrics.Jobs, inst.N())
	}
}

// facadeStream builds a deterministic bursty stream through the public API.
func facadeStream(t *testing.T, m, n int, seed int64) []OnlineJob {
	t.Helper()
	arrivals, err := GenerateArrivals(ArrivalConfig{
		Workload:  WorkloadConfig{Kind: WorkloadMixed, M: m, N: n, Seed: seed},
		Rate:      3,
		BurstSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ArrivalJobs(arrivals)
}

// TestFacadeClusterConfigValidation exercises every rejection path of a
// shard's cluster configuration through the public API, on a one-shard
// grid.
func TestFacadeClusterConfigValidation(t *testing.T) {
	demt := ClusterDEMTAlgorithm(nil)
	cases := []struct {
		name string
		spec GridClusterSpec
	}{
		{"zero processors", GridClusterSpec{M: 0}},
		{"nameless algorithm", GridClusterSpec{M: 8, Portfolio: []ClusterAlgorithm{{Run: demt.Run}}}},
		{"algorithm without Run", GridClusterSpec{M: 8, Portfolio: []ClusterAlgorithm{{Name: "x"}}}},
		{"duplicate algorithm names", GridClusterSpec{M: 8, Portfolio: []ClusterAlgorithm{demt, demt}}},
		{"alpha above 1", GridClusterSpec{M: 8, Objective: ClusterObjective{Kind: ClusterObjectiveCombined, Alpha: 2}}},
		{"alpha below 0", GridClusterSpec{M: 8, Objective: ClusterObjective{Kind: ClusterObjectiveCombined, Alpha: -0.1}}},
		{"unknown objective", GridClusterSpec{M: 8, Objective: ClusterObjective{Kind: 99}}},
		{"reservation too wide", GridClusterSpec{M: 8, Reservations: []Reservation{{Procs: 9, Start: 0, End: 5}}}},
		{"reservation blocks machine", GridClusterSpec{M: 8, Reservations: []Reservation{{Procs: 8, Start: 0, End: 5}}}},
		{"reversed reservation window", GridClusterSpec{M: 8, Reservations: []Reservation{{Procs: 2, Start: 5, End: 1}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := GridConfig{Clusters: []GridClusterSpec{tc.spec}}
			if _, err := RunGridContext(context.Background(), cfg, nil); err == nil {
				t.Fatalf("RunGridContext accepted %s", tc.name)
			}
		})
	}

	// Bad noise constructors.
	if _, err := UniformRuntimeNoise(1.5, 1); err == nil {
		t.Fatal("noise fraction above 1 accepted")
	}
	if f, err := UniformRuntimeNoise(0, 1); err != nil || f != nil {
		t.Fatalf("zero noise should yield a nil perturbation, got %v, %v", f != nil, err)
	}
}

// TestFacadeClusterDeterministicReplay drives a one-shard grid end-to-end
// through the facade under every objective and batching policy, asserting
// that repeated runs agree bit for bit. The facade builds only BatchOnIdle; the other two policies
// come from internal/cluster, as a scenario's batch section does.
func TestFacadeClusterDeterministicReplay(t *testing.T) {
	jobs := facadeStream(t, 24, 60, 21)
	interval, err := cluster.FixedInterval(15)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := cluster.AdaptiveBacklog(96, 40)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		objective ClusterObjective
		policy    ClusterBatchPolicy
	}{
		{"makespan/idle", ClusterObjective{Kind: ClusterObjectiveMakespan}, BatchOnIdle()},
		{"minsum/interval", ClusterObjective{Kind: ClusterObjectiveWeightedCompletion}, interval},
		{"combined/adaptive", ClusterObjective{Kind: ClusterObjectiveCombined, Alpha: 0.5}, adaptive},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			noise, err := UniformRuntimeNoise(0.2, 21)
			if err != nil {
				t.Fatal(err)
			}
			base := GridClusterSpec{
				M:            24,
				Portfolio:    ClusterPortfolio(&DEMTOptions{Seed: 21}),
				Objective:    tc.objective,
				Policy:       tc.policy,
				Reservations: []Reservation{{Name: "maint", Procs: 6, Start: 4, End: 14}},
				Perturb:      noise,
			}
			cfg := GridConfig{Clusters: []GridClusterSpec{base}}
			rep, err := RunGridContext(context.Background(), cfg, jobs)
			if err != nil {
				t.Fatal(err)
			}
			again, err := RunGridContext(context.Background(), cfg, jobs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep, again) {
				t.Fatal("two facade replays differ")
			}
			par := rep.Clusters[0]
			if par.Metrics.Jobs != len(jobs) {
				t.Fatalf("replay completed %d of %d jobs", par.Metrics.Jobs, len(jobs))
			}
			if err := ValidateReservations(par.Schedule, base.Reservations, par.Blocked); err != nil {
				t.Fatalf("realized trace violates a reservation: %v", err)
			}
			m := par.Metrics
			if !(m.StretchP50 <= m.StretchP95+1e-9 && m.StretchP95 <= m.StretchP99+1e-9) {
				t.Fatalf("stretch percentiles out of order: %g %g %g", m.StretchP50, m.StretchP95, m.StretchP99)
			}
		})
	}
}

// TestFacadeGrid exercises the Grid* exports: heterogeneous shards, every
// routing policy, determinism through the facade.
func TestFacadeGrid(t *testing.T) {
	jobs := facadeStream(t, 32, 50, 33)
	policies := map[string]func() GridRoutingPolicy{
		"round-robin":   GridRoundRobin,
		"least-backlog": GridLeastBacklog,
		"lower-bound":   GridLowerBoundAware,
		"moldability":   GridMoldabilityAware,
	}
	for name, policy := range policies {
		noise, err := UniformRuntimeNoise(0.15, 33)
		if err != nil {
			t.Fatal(err)
		}
		cfg := GridConfig{
			Clusters: []GridClusterSpec{
				{M: 8, Perturb: noise},
				{M: 16},
				{M: 32, Reservations: []Reservation{{Name: "maint", Procs: 8, Start: 2, End: 10}}},
			},
			Routing:      policy(),
			AdmitBacklog: 30,
		}
		par, err := RunGridContext(context.Background(), cfg, jobs)
		if err != nil {
			t.Fatal(err)
		}
		seqCfg := cfg
		seqCfg.Routing = policy()
		seqCfg.Sequential = true
		seq, err := RunGridContext(context.Background(), seqCfg, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par, seq) {
			t.Fatalf("%s: concurrent facade grid replay differs from sequential", name)
		}
		if par.Metrics.Jobs != len(jobs) || par.Metrics.Clusters != 3 {
			t.Fatalf("%s: unexpected grid metrics %+v", name, par.Metrics)
		}
	}
	if _, err := RunGridContext(context.Background(), GridConfig{}, jobs); err == nil {
		t.Fatal("empty grid accepted")
	}
}

// TestFacadeEntryPointsHonourCancellation calls every off-line compute
// entry point with an already-cancelled context: each must return an error
// that wraps context.Canceled.
func TestFacadeEntryPointsHonourCancellation(t *testing.T) {
	inst, err := GenerateWorkload(WorkloadConfig{Kind: WorkloadMixed, M: 16, N: 20, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	for name, call := range map[string]func() error{
		"DEMT": func() error {
			_, err := DEMT(ctx, inst, nil)
			return err
		},
		"Gang": func() error {
			_, err := Gang(ctx, inst)
			return err
		},
		"SequentialLPT": func() error {
			_, err := SequentialLPT(ctx, inst)
			return err
		},
		"ListScheduling": func() error {
			_, err := ListScheduling(ctx, inst, ListSmallestAreaFirst)
			return err
		},
		"ScheduleWithReservations": func() error {
			_, err := ScheduleWithReservations(ctx, inst, []Reservation{{Procs: 4, Start: 0, End: 5}}, nil)
			return err
		},
		"RunExperiment": func() error {
			_, err := RunExperiment(ctx, ExperimentConfig{Workload: WorkloadMixed, M: 12, TaskCounts: []int{6}, Runs: 1})
			return err
		},
	} {
		if err := call(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: got %v, want an error wrapping context.Canceled", name, err)
		}
	}
}
