package perf

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"bicriteria/internal/cluster"
	"bicriteria/internal/core"
	"bicriteria/internal/flight"
	"bicriteria/internal/grid"
	"bicriteria/internal/moldable"
	"bicriteria/internal/reservation"
	"bicriteria/internal/scenario"
	"bicriteria/internal/serve"
	"bicriteria/internal/slo"
	"bicriteria/internal/workload"
)

// Suite returns the full benchmark suite in canonical order: one named
// benchmark per instrumented hot path. Names are stable — they are the
// join keys of trajectory comparison — so renaming one is a compatibility
// decision, not a refactor.
func Suite() []Benchmark {
	suite := []Benchmark{
		{Name: "DEMT/schedule", F: benchDEMTSchedule},
		{Name: "DEMT/dualapprox", F: func(b *testing.B) { benchDEMTPhase(b, "dualapprox") }},
		{Name: "DEMT/knapsack", F: func(b *testing.B) { benchDEMTPhase(b, "knapsack") }},
		{Name: "DEMT/compact", F: func(b *testing.B) { benchDEMTPhase(b, "compact") }},
	}
	for _, algo := range cluster.DefaultPortfolio(nil) {
		suite = append(suite, Benchmark{
			Name: "Portfolio/" + algo.Name,
			F:    func(b *testing.B) { benchPortfolioAlgorithm(b, algo) },
		})
	}
	suite = append(suite,
		Benchmark{Name: "BatchPlan", F: benchBatchPlan},
		Benchmark{Name: "PortfolioRace", F: benchPortfolioRace},
		Benchmark{Name: "ClusterReplay", F: benchClusterReplay},
		Benchmark{Name: "GridReplay/clusters=1", F: func(b *testing.B) { benchGridReplay(b, 1) }},
		Benchmark{Name: "GridReplay/clusters=4", F: func(b *testing.B) { benchGridReplay(b, 4) }},
		Benchmark{Name: "GridReplay/clusters=8", F: func(b *testing.B) { benchGridReplay(b, 8) }},
		Benchmark{Name: "ServeBulkIngest", F: benchServeBulkIngest},
		Benchmark{Name: "ScenarioCompile", F: benchScenarioCompile},
		Benchmark{Name: "FlightRecord", F: benchFlightRecord},
		Benchmark{Name: "SLOEvaluate", F: benchSLOEvaluate},
	)
	return suite
}

// batchInstance is the standard offline batch the DEMT and portfolio
// benchmarks schedule: the paper's mixed workload at 64 processors, 100
// tasks.
func batchInstance(b *testing.B) *moldable.Instance {
	inst, err := workload.Generate(workload.Config{Kind: workload.Mixed, M: 64, N: 100, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// benchDEMTSchedule times one full DEMT run — dual approximation,
// knapsack batch construction and compaction — on the standard batch.
func benchDEMTSchedule(b *testing.B) {
	inst, ctx := batchInstance(b), b.Context()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ScheduleContext(ctx, inst, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDEMTPhase times one internal DEMT phase ("dualapprox", "knapsack"
// or "compact") through the core.Options.Timing hook: the loop runs full schedules, the
// reported ns/op is the accumulated phase time per schedule. allocs/op
// and B/op still cover the whole run — the harness cannot attribute
// allocations to a phase.
func benchDEMTPhase(b *testing.B, phase string) {
	inst, ctx := batchInstance(b), b.Context()
	var secs float64
	opts := &core.Options{Timing: func(ph string, s float64) {
		if ph == phase {
			secs += s
		}
	}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ScheduleContext(ctx, inst, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(secs*1e9/float64(b.N), "ns/op")
}

// benchPortfolioAlgorithm times one portfolio member scheduling the
// standard batch — the per-algorithm latency the
// bicrit_portfolio_algorithm_seconds histogram watches live.
func benchPortfolioAlgorithm(b *testing.B, algo cluster.Algorithm) {
	inst, ctx := batchInstance(b), b.Context()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := algo.Run(ctx, inst); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBatchPlan times planning and executing one single batch through
// the cluster engine: every job released at 0, batch-on-idle, so the
// whole run is one portfolio race plus one commit.
func benchBatchPlan(b *testing.B) {
	inst := batchInstance(b)
	jobs := make([]cluster.Job, len(inst.Tasks))
	for i, t := range inst.Tasks {
		jobs[i] = cluster.Job{Task: t}
	}
	eng, err := cluster.New(cluster.Config{
		M:         64,
		Objective: cluster.Objective{Kind: cluster.ObjectiveCombined, Alpha: 0.5},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunContext(b.Context(), jobs); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPortfolioRace is benchBatchPlan with racing enabled, measured at
// the bandit's steady state: the replay schedules the standard batch six
// times over (releases spaced so batch-on-idle fires once per copy), the
// first batch teaches the bandit who wins, and from the second on the
// winner launches first and the slower members are cancelled mid-flight
// as soon as it lands within the cutoff of the batch lower bound. The
// reported ns/op is per batch — directly comparable to BatchPlan, which
// plans the identical instance without racing. allocs/op and B/op cover
// the whole replay.
func benchPortfolioRace(b *testing.B) {
	inst := batchInstance(b)
	const batches = 6
	jobs := make([]cluster.Job, 0, batches*len(inst.Tasks))
	for k := 0; k < batches; k++ {
		for _, t := range inst.Tasks {
			t.ID = len(jobs)
			jobs = append(jobs, cluster.Job{Task: t, Release: float64(k) * 1e6})
		}
	}
	eng, err := cluster.New(cluster.Config{
		M:         64,
		Objective: cluster.Objective{Kind: cluster.ObjectiveCombined, Alpha: 0.5},
		Racing:    cluster.Racing{Cutoff: 2.5, Bandit: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunContext(b.Context(), jobs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batches), "ns/op")
}

// benchClusterReplay is the historical ClusterReplay configuration (PR 6
// trajectory continuity): the event-driven cluster engine replaying a
// bursty Poisson stream with the concurrent portfolio, noisy runtimes and
// a reservation.
func benchClusterReplay(b *testing.B) {
	const m, n = 64, 150
	arrivals, err := workload.GenerateArrivals(workload.ArrivalConfig{
		Workload:  workload.Config{Kind: workload.Mixed, M: m, N: n, Seed: 42},
		Rate:      4,
		BurstSize: 6,
	})
	if err != nil {
		b.Fatal(err)
	}
	jobs := cluster.JobsFromArrivals(arrivals)
	perturb, err := cluster.UniformNoise(0.2, 42)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := cluster.New(cluster.Config{
		M:         m,
		Objective: cluster.Objective{Kind: cluster.ObjectiveCombined, Alpha: 0.5},
		Perturb:   perturb,
		Reservations: []reservation.Reservation{
			{Name: "maint", Procs: m / 8, Start: 10, End: 30},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.RunContext(b.Context(), jobs); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGridReplay times the grid federation replaying one fixed 500-job
// burst-heavy stream across `clusters` shards — routing plus the shard
// sessions' batch loops at 1/4/8 shards. The 4-shard variant is the historical
// GridReplay/clusters=4 configuration.
func benchGridReplay(b *testing.B, clusters int) {
	const perCluster = 32
	arrivals, err := workload.GenerateArrivals(workload.ArrivalConfig{
		Workload:  workload.Config{Kind: workload.Mixed, M: perCluster, N: 500, Seed: 42},
		Rate:      100,
		BurstSize: 125,
	})
	if err != nil {
		b.Fatal(err)
	}
	jobs := cluster.JobsFromArrivals(arrivals)
	specs := make([]grid.ClusterSpec, clusters)
	for i := range specs {
		perturb, err := cluster.UniformNoise(0.2, int64(42+i))
		if err != nil {
			b.Fatal(err)
		}
		specs[i] = grid.ClusterSpec{M: perCluster, Perturb: perturb}
	}
	fed, err := grid.New(grid.Config{
		Clusters: specs,
		Routing:  grid.LeastBacklog(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fed.RunContext(b.Context(), jobs); err != nil {
			b.Fatal(err)
		}
	}
}

// benchServeBulkIngest times the serve layer's front door: one bulk
// POST /jobs of 64 jobs through the real HTTP handler — JSON decode,
// validation, admission control and the sharded submission queue. IDs
// increment across iterations so the registry grows like a live
// service's; the refresher and snapshots are off, isolating ingest. With
// the refresher off nothing drains the queue, so its depth is sized to
// the iteration count — admission must never push back mid-run.
func benchServeBulkIngest(b *testing.B) {
	const bulk = 64
	srv, err := serve.NewServer(serve.Config{
		Grid: grid.Config{
			Clusters: []grid.ClusterSpec{{M: 32}, {M: 32}},
		},
		Speedup:          1e6,
		RefreshInterval:  -1,
		SnapshotInterval: -1,
		QueueDepth:       bulk * (b.N + 1),
	})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	var body bytes.Buffer
	nextID := 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.Reset()
		body.WriteString(`{"jobs": [`)
		for j := 0; j < bulk; j++ {
			if j > 0 {
				body.WriteByte(',')
			}
			fmt.Fprintf(&body, `{"id": %d, "weight": 2, "times": [60, 35, 20]}`, nextID)
			nextID++
		}
		body.WriteString(`]}`)
		req := httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body.Bytes()))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			b.Fatalf("bulk submit: status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// flightReport replays the historical 4-shard grid configuration once
// and returns its report — the shared setup of the flight-recorder and
// SLO benchmarks, built outside their timed loops.
func flightReport(b *testing.B) *grid.Report {
	const perCluster, clusters = 32, 4
	arrivals, err := workload.GenerateArrivals(workload.ArrivalConfig{
		Workload:  workload.Config{Kind: workload.Mixed, M: perCluster, N: 500, Seed: 42},
		Rate:      100,
		BurstSize: 125,
	})
	if err != nil {
		b.Fatal(err)
	}
	jobs := cluster.JobsFromArrivals(arrivals)
	specs := make([]grid.ClusterSpec, clusters)
	for i := range specs {
		perturb, err := cluster.UniformNoise(0.2, int64(42+i))
		if err != nil {
			b.Fatal(err)
		}
		specs[i] = grid.ClusterSpec{M: perCluster, Perturb: perturb}
	}
	fed, err := grid.New(grid.Config{Clusters: specs, Routing: grid.LeastBacklog()})
	if err != nil {
		b.Fatal(err)
	}
	rep, err := fed.RunContext(b.Context(), jobs)
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// benchFlightRecord times rebuilding a 500-job flight recorder from a
// finished grid report and sorting its events into total order — what
// bicrit explain pays when it replays a scenario.
func benchFlightRecord(b *testing.B) {
	rep := flightReport(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := flight.FromGridReport(rep)
		if len(rec.Events()) == 0 {
			b.Fatal("empty flight record")
		}
	}
}

// benchSLOEvaluate times one SLO evaluation — deadline misses,
// per-cluster breakdown, burn-rate window and tail percentiles — over
// the 500-job outcome set of the standard grid replay.
func benchSLOEvaluate(b *testing.B) {
	rep := flightReport(b)
	var outcomes []slo.JobOutcome
	for c, crep := range rep.Clusters {
		if crep == nil {
			continue
		}
		for _, br := range crep.Batches {
			for _, p := range br.Placements {
				outcomes = append(outcomes, slo.JobOutcome{
					Job: p.TaskID, Cluster: c, Release: 0, Pmin: p.End - p.Start,
					Start: p.Start, End: p.End, Done: true,
				})
			}
		}
	}
	if len(outcomes) == 0 {
		b.Fatal("no outcomes")
	}
	spec := slo.Spec{
		MissBudget:    0.05,
		BurnWindow:    50,
		StretchTarget: 10,
		WaitTarget:    100,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := slo.Evaluate(spec, outcomes)
		if sum.Jobs != len(outcomes) {
			b.Fatal("job count mismatch")
		}
	}
}

// benchScenarioCompile times the scenario front door: building and
// compiling a 4-cluster grid spec, which validates eagerly and generates
// the full 400-job arrival stream.
func benchScenarioCompile(b *testing.B) {
	spec, err := scenario.New(
		scenario.WithClusters(32, 32, 16, 16),
		scenario.WithWorkload("mixed", 400),
		scenario.WithArrivals(8, 4),
		scenario.WithNoise(0.15),
		scenario.WithSeed(42),
	)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scenario.Compile(spec); err != nil {
			b.Fatal(err)
		}
	}
}
