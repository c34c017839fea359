package bicriteria

// Benchmark harness regenerating every figure of the paper's evaluation
// (section 4) plus the ablation studies of internal/experiment (batch
// selection, compaction, lower bounds).
//
// By default the benchmarks run a scaled-down version of the paper's
// setting (smaller machine, fewer task counts, fewer runs, and the fast
// squashed-area minsum bound for the largest sweeps) so that
// `go test -bench=. -benchmem` finishes in minutes. Set the environment
// variable BICRIT_FULL=1 to run the paper's full scale (200 processors,
// 25..400 tasks, 40 runs per point, LP lower bound); expect it to take a
// long time.
//
// Every figure benchmark reports, as benchmark metrics, the aggregated
// ratios of the DEMT algorithm and of the best baseline, and logs the whole
// table (visible with `go test -bench Figure -benchtime 1x -v`).

import (
	"fmt"
	"os"
	"testing"

	"bicriteria/internal/cluster"
	"bicriteria/internal/core"
	"bicriteria/internal/dualapprox"
	"bicriteria/internal/experiment"
	"bicriteria/internal/grid"
	"bicriteria/internal/knapsack"
	"bicriteria/internal/listsched"
	"bicriteria/internal/lowerbound"
	"bicriteria/internal/workload"
)

// fullScale reports whether the paper-scale benchmarks were requested.
func fullScale() bool { return os.Getenv("BICRIT_FULL") == "1" }

// figureConfig builds the benchmark configuration for one of the paper's
// figures, scaled down unless BICRIT_FULL=1.
func figureConfig(figure int) experiment.Config {
	if fullScale() {
		cfg, err := experiment.FigureConfig(figure, 40, 1, true)
		if err != nil {
			panic(err)
		}
		cfg.M = 200
		return cfg
	}
	cfg, err := experiment.FigureConfig(figure, 3, 1, false)
	if err != nil {
		panic(err)
	}
	cfg.M = 64
	cfg.TaskCounts = []int{25, 50, 100}
	return cfg
}

// runFigure executes the experiment once per benchmark iteration and
// reports the headline numbers of the figure.
func runFigure(b *testing.B, figure int) {
	b.Helper()
	cfg := figureConfig(figure)
	var res *experiment.Result
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = experiment.Run(b.Context(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportFigure(b, res)
}

// reportFigure attaches the figure's headline series to the benchmark
// output and logs the full table.
func reportFigure(b *testing.B, res *experiment.Result) {
	b.Helper()
	if demt := res.SeriesFor(experiment.AlgDEMT); demt != nil {
		last := demt.Points[len(demt.Points)-1]
		b.ReportMetric(last.MinsumRatio.Mean, "demt_minsum_ratio")
		b.ReportMetric(last.CmaxRatio.Mean, "demt_cmax_ratio")
	}
	if saf := res.SeriesFor(experiment.AlgListSAF); saf != nil {
		last := saf.Points[len(saf.Points)-1]
		b.ReportMetric(last.MinsumRatio.Mean, "saf_minsum_ratio")
	}
	b.Logf("\n%s", experiment.FormatTable(res))
}

// BenchmarkFigure3 reproduces Figure 3: performance ratios on the weakly
// parallel workload (DEMT is expected to be the weakest here but bounded by
// about 2 on the makespan).
func BenchmarkFigure3WeaklyParallel(b *testing.B) { runFigure(b, 3) }

// BenchmarkFigure4 reproduces Figure 4: highly parallel workload (DEMT is
// expected to lead on the minsum criterion).
func BenchmarkFigure4HighlyParallel(b *testing.B) { runFigure(b, 4) }

// BenchmarkFigure5 reproduces Figure 5: mixed workload (SAF is expected to
// edge out DEMT, both stay around 2).
func BenchmarkFigure5Mixed(b *testing.B) { runFigure(b, 5) }

// BenchmarkFigure6 reproduces Figure 6: Cirne-Berman workload (DEMT is
// expected to clearly lead on the minsum criterion and stay stable).
func BenchmarkFigure6Cirne(b *testing.B) { runFigure(b, 6) }

// BenchmarkFigure7SchedulerTime reproduces Figure 7: the execution time of
// the DEMT scheduler itself as a function of the number of tasks (the paper
// reports < 2 seconds at n=400 on 200 processors).
func BenchmarkFigure7SchedulerTime(b *testing.B) {
	taskCounts := []int{25, 50, 100, 200, 400}
	m := 200
	runs := 2
	if fullScale() {
		runs = 40
	}
	kinds := []workload.Kind{workload.WeaklyParallel, workload.Cirne, workload.HighlyParallel}
	for _, kind := range kinds {
		for _, n := range taskCounts {
			name := fmt.Sprintf("%s/n=%d", kind, n)
			b.Run(name, func(b *testing.B) {
				insts := make([]*Instance, runs)
				for r := 0; r < runs; r++ {
					inst, err := workload.Generate(workload.Config{Kind: kind, M: m, N: n, Seed: int64(1000*n + r)})
					if err != nil {
						b.Fatal(err)
					}
					insts[r] = inst
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					inst := insts[i%runs]
					if _, err := core.ScheduleContext(b.Context(), inst, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationSelection compares the paper's knapsack batch selection
// with a greedy weight-density selection (ablation A1).
func BenchmarkAblationSelection(b *testing.B) {
	for _, mode := range []core.SelectionMode{core.SelectionKnapsack, core.SelectionGreedy} {
		b.Run(mode.String(), func(b *testing.B) {
			ratioSum, count := 0.0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inst, err := workload.Generate(workload.Config{Kind: workload.Cirne, M: 64, N: 80, Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				res, err := core.ScheduleContext(b.Context(), inst, &core.Options{Selection: mode})
				if err != nil {
					b.Fatal(err)
				}
				lb := lowerbound.MinsumSquashedArea(inst)
				ratioSum += res.Schedule.WeightedCompletion(inst) / lb
				count++
			}
			b.StopTimer()
			if count > 0 {
				b.ReportMetric(ratioSum/float64(count), "minsum_ratio")
			}
		})
	}
}

// BenchmarkAblationCompaction compares the compaction modes (ablation A2):
// none, earliest-start, list, and list with shuffling (the paper's choice).
func BenchmarkAblationCompaction(b *testing.B) {
	modes := []core.CompactionMode{
		core.CompactionNone, core.CompactionEarliestStart, core.CompactionList, core.CompactionListShuffle,
	}
	for _, mode := range modes {
		b.Run(mode.String(), func(b *testing.B) {
			minsumSum, cmaxSum, count := 0.0, 0.0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inst, err := workload.Generate(workload.Config{Kind: workload.Mixed, M: 64, N: 80, Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				res, err := core.ScheduleContext(b.Context(), inst, &core.Options{Compaction: mode})
				if err != nil {
					b.Fatal(err)
				}
				minsumSum += res.Schedule.WeightedCompletion(inst) / lowerbound.MinsumSquashedArea(inst)
				cmaxSum += res.Schedule.Makespan() / res.MakespanLowerBound
				count++
			}
			b.StopTimer()
			if count > 0 {
				b.ReportMetric(minsumSum/float64(count), "minsum_ratio")
				b.ReportMetric(cmaxSum/float64(count), "cmax_ratio")
			}
		})
	}
}

// BenchmarkAblationLowerBound compares the LP-relaxation minsum bound with
// the squashed-area bound (ablation A3): tightness gain vs computing cost.
func BenchmarkAblationLowerBound(b *testing.B) {
	inst, err := workload.Generate(workload.Config{Kind: workload.Cirne, M: 64, N: 80, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("squashed-area", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			v = lowerbound.MinsumSquashedArea(inst)
		}
		b.ReportMetric(v, "bound_value")
	})
	b.Run("lp-relaxation", func(b *testing.B) {
		var v, raw float64
		for i := 0; i < b.N; i++ {
			bound, err := lowerbound.MinsumLP(inst, nil)
			if err != nil {
				b.Fatal(err)
			}
			v = bound.Value
			raw = bound.LPValue
		}
		b.ReportMetric(v, "bound_value")
		b.ReportMetric(raw, "lp_raw_value")
	})
}

// BenchmarkClusterReplay measures the event-driven cluster engine replaying
// a bursty Poisson stream with the full concurrent portfolio, noisy
// runtimes and a reservation: the end-to-end hot path of the system.
func BenchmarkClusterReplay(b *testing.B) {
	m, n := 64, 150
	if fullScale() {
		m, n = 200, 400
	}
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
		Reservations: []Reservation{
			{Name: "maint", Procs: m / 8, Start: 10, End: 30},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var report *cluster.Report
	for i := 0; i < b.N; i++ {
		report, err = eng.RunContext(b.Context(), jobs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(report.Metrics.Utilization, "utilization")
	b.ReportMetric(float64(report.Metrics.Batches), "batches")
	b.ReportMetric(report.Metrics.MeanStretch, "mean_stretch")
}

// BenchmarkDEMTSchedule measures the raw DEMT scheduling time at the
// paper's machine size for a mid-size instance.
func BenchmarkDEMTSchedule(b *testing.B) {
	inst, err := workload.Generate(workload.Config{Kind: workload.Cirne, M: 200, N: 100, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ScheduleContext(b.Context(), inst, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDualApproximation measures the two-shelf dual-approximation
// construction used to anchor the batches.
func BenchmarkDualApproximation(b *testing.B) {
	inst, err := workload.Generate(workload.Config{Kind: workload.Mixed, M: 200, N: 100, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dualapprox.TwoShelf(inst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinsumLPBound measures the LP-relaxation lower bound (the
// dominant cost of reproducing the figures with the paper's bound).
func BenchmarkMinsumLPBound(b *testing.B) {
	inst, err := workload.Generate(workload.Config{Kind: workload.HighlyParallel, M: 200, N: 100, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lowerbound.MinsumLP(inst, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKnapsackSelection measures the O(mn) knapsack used by each batch
// at the paper's scale (m=200, n=400).
func BenchmarkKnapsackSelection(b *testing.B) {
	items := make([]knapsack.Item, 400)
	for i := range items {
		items[i] = knapsack.Item{Cost: 1 + i%32, Value: float64(1 + i%10)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := knapsack.MaxValue(items, 200); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGrahamList measures the event-driven list scheduler on a large
// rigid instance (the compaction workhorse).
func BenchmarkGrahamList(b *testing.B) {
	items := make([]listsched.Item, 400)
	for i := range items {
		items[i] = listsched.Item{TaskID: i, NProcs: 1 + i%32, Duration: 1 + float64(i%17)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := listsched.Graham(200, items); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridReplay measures the grid federation replaying one fixed
// 500-job burst-heavy stream across 1, 2, 4 and 8 cluster shards: the
// scale-up of the concurrent meta-scheduler pipeline. Shards replay in
// goroutine-parallel, so on a machine with at least as many cores as
// shards the wall clock shrinks as clusters are added while the routed
// work stays fixed; on fewer cores the benchmark instead measures the
// pipeline's overhead (the reported batches metric shows how the same
// stream fissions across shard counts).
func BenchmarkGridReplay(b *testing.B) {
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
	for _, clusters := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("clusters=%d", clusters), func(b *testing.B) {
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
			b.ResetTimer()
			var report *grid.Report
			for i := 0; i < b.N; i++ {
				report, err = fed.RunContext(b.Context(), jobs)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			batches := 0
			for _, pc := range report.Metrics.PerCluster {
				batches += pc.Batches
			}
			b.ReportMetric(float64(batches), "batches")
			b.ReportMetric(report.Metrics.Utilization, "utilization")
			b.ReportMetric(report.Metrics.MeanStretch, "mean_stretch")
			b.ReportMetric(report.Metrics.StretchP95, "p95_stretch")
		})
	}
}
