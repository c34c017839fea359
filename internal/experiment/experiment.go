// Package experiment is the harness that regenerates the evaluation of the
// paper (section 4): for each workload family and each number of tasks it
// generates several random instances, runs DEMT and the baseline
// algorithms, computes the lower bounds of both criteria and aggregates the
// performance ratios exactly as the paper does (ratio of sums for the
// average, plus per-run minimum and maximum).
//
// Figures 3-6 are the (minsum ratio, makespan ratio) series of the four
// workload families; Figure 7 is the scheduler execution time. The
// ablation studies (RunAblation) run on the same instances, and their DEMT
// variants through Run.
package experiment

import (
	"context"
	"fmt"
	"slices"
	"time"

	"bicriteria/internal/baselines"
	"bicriteria/internal/core"
	"bicriteria/internal/dualapprox"
	"bicriteria/internal/lowerbound"
	"bicriteria/internal/moldable"
	"bicriteria/internal/schedule"
	"bicriteria/internal/stats"
	"bicriteria/internal/workload"
)

// Algorithm identifies one scheduling algorithm of the comparison.
type Algorithm string

const (
	// AlgDEMT is the paper's bi-criteria algorithm (named after its
	// authors' initials in the figures: "DEMT").
	AlgDEMT Algorithm = "demt"
	// AlgGang runs every task on all processors.
	AlgGang Algorithm = "gang"
	// AlgSequential runs every task on one processor (LPT list).
	AlgSequential Algorithm = "sequential"
	// AlgListShelf is Graham list scheduling with the dual-approximation
	// allotment in shelf order.
	AlgListShelf Algorithm = "list"
	// AlgListWeightedLPT is the weighted-LPT variant.
	AlgListWeightedLPT Algorithm = "lptf"
	// AlgListSAF is the smallest-area-first variant.
	AlgListSAF Algorithm = "saf"
)

// algorithms returns the full comparison set in the paper's legend order.
func algorithms() []Algorithm {
	return []Algorithm{AlgDEMT, AlgGang, AlgSequential, AlgListShelf, AlgListWeightedLPT, AlgListSAF}
}

// ParseAlgorithm converts a CLI string into an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	for _, a := range algorithms() {
		if string(a) == s {
			return a, nil
		}
	}
	return "", fmt.Errorf("experiment: unknown algorithm %q", s)
}

// Config drives one experiment (one figure of the paper).
type Config struct {
	// Workload selects the workload family.
	Workload workload.Kind
	// M is the number of processors (the paper uses 200).
	M int
	// TaskCounts is the sweep over the number of tasks (the paper uses
	// 25..400).
	TaskCounts []int
	// Runs is the number of random instances per point (the paper uses 40).
	Runs int
	// Seed makes the experiment deterministic.
	Seed int64
	// Algorithms to compare, each at most once; nil means all of them.
	Algorithms []Algorithm
	// UseLPBound selects the paper's LP-relaxation lower bound for the
	// minsum criterion; when false the much cheaper squashed-area bound is
	// used instead (useful for quick runs and unit tests).
	UseLPBound bool
	// ValidateSchedules re-validates every produced schedule (slower;
	// enabled in tests).
	ValidateSchedules bool
	// DEMT carries options for the DEMT algorithm (nil = paper defaults).
	DEMT *core.Options
}

func (c Config) withDefaults() Config {
	if c.M == 0 {
		c.M = 200
	}
	if len(c.TaskCounts) == 0 {
		c.TaskCounts = defaultTaskCounts()
	}
	if c.Runs == 0 {
		c.Runs = 40
	}
	if len(c.Algorithms) == 0 {
		c.Algorithms = algorithms()
	}
	return c
}

// check rejects what withDefaults leaves wrong: fewer than one run, or an
// algorithm listed twice (its copies would add to one aggregator).
func (c Config) check() error {
	if c.Runs < 1 {
		return fmt.Errorf("experiment: Runs must be >= 1")
	}
	for i, alg := range c.Algorithms {
		if slices.Contains(c.Algorithms[:i], alg) {
			return fmt.Errorf("experiment: algorithm %q is listed twice", alg)
		}
	}
	return nil
}

// defaultTaskCounts returns the task-count sweep used by the paper's
// figures (25 to 400).
func defaultTaskCounts() []int {
	return []int{25, 50, 100, 150, 200, 250, 300, 350, 400}
}

// Point is the aggregated result of one (algorithm, task count) pair.
type Point struct {
	// N is the number of tasks.
	N int
	// CmaxRatio aggregates makespan / makespan-lower-bound.
	CmaxRatio stats.Ratio
	// MinsumRatio aggregates weighted-minsum / minsum-lower-bound.
	MinsumRatio stats.Ratio
	// SchedulerTime is the average wall-clock time of the algorithm.
	SchedulerTime time.Duration
}

// Series is the curve of one algorithm across the task-count sweep.
type Series struct {
	Algorithm Algorithm
	Points    []Point
}

// Result is a complete figure: one series per algorithm.
type Result struct {
	Config Config
	Series []Series
	// Elapsed is the total wall-clock time of the experiment.
	Elapsed time.Duration
}

// Run executes the experiment. The context is passed to every algorithm
// run, so a cancellation aborts the experiment with the context's error
// (errors.Is(err, ctx.Err()) holds).
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.check(); err != nil {
		return nil, err
	}
	start := time.Now()
	res := &Result{Config: cfg}
	for _, alg := range cfg.Algorithms {
		res.Series = append(res.Series, Series{Algorithm: alg})
	}

	for _, n := range cfg.TaskCounts {
		aggCmax := make(map[Algorithm]*stats.RatioAggregator)
		aggMinsum := make(map[Algorithm]*stats.RatioAggregator)
		timeSum := make(map[Algorithm]time.Duration)
		for _, alg := range cfg.Algorithms {
			aggCmax[alg] = &stats.RatioAggregator{}
			aggMinsum[alg] = &stats.RatioAggregator{}
		}

		for run := 0; run < cfg.Runs; run++ {
			inst, err := cfg.instance(n, run)
			if err != nil {
				return nil, err
			}

			// Shared pre-computations: the instance's table (read by DEMT,
			// gang, seq-lpt and the dual approximation) and the
			// dual-approximation result (used by DEMT, the list baselines
			// and the lower bounds).
			tab := moldable.NewTable(inst)
			da, err := dualapprox.TwoShelfTable(tab, dualapprox.MakespanLowerBound(tab))
			if err != nil {
				return nil, err
			}
			cmaxLB := da.LowerBound
			minsumLB := lowerbound.MinsumSquashedArea(inst)
			if cfg.UseLPBound {
				b, err := lowerbound.MinsumLP(inst, &lowerbound.MinsumOptions{CmaxEstimate: da.Estimate})
				if err != nil {
					return nil, err
				}
				minsumLB = b.Value
			}

			for _, alg := range cfg.Algorithms {
				sched, elapsed, err := runAlgorithm(ctx, alg, tab, da, cfg.DEMT)
				if err != nil {
					return nil, fmt.Errorf("experiment: %s on %s n=%d run=%d: %w", alg, cfg.Workload, n, run, err)
				}
				if cfg.ValidateSchedules {
					if err := sched.Validate(inst, nil); err != nil {
						return nil, fmt.Errorf("experiment: %s produced an invalid schedule: %w", alg, err)
					}
				}
				timeSum[alg] += elapsed
				if err := aggCmax[alg].Add(sched.Makespan(), cmaxLB); err != nil {
					return nil, err
				}
				if err := aggMinsum[alg].Add(sched.WeightedCompletion(inst), minsumLB); err != nil {
					return nil, err
				}
			}
		}

		for si := range res.Series {
			alg := res.Series[si].Algorithm
			res.Series[si].Points = append(res.Series[si].Points, Point{
				N:             n,
				CmaxRatio:     aggCmax[alg].Result(),
				MinsumRatio:   aggMinsum[alg].Result(),
				SchedulerTime: timeSum[alg] / time.Duration(cfg.Runs),
			})
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// instance generates the random instance of one run at n tasks. Its seed
// mixes the base seed with the sweep coordinates, so every run gets a
// distinct but reproducible instance.
func (c Config) instance(n, run int) (*moldable.Instance, error) {
	seed := c.Seed*1_000_003 + int64(n)*131 + int64(run)*7 + 1
	return workload.Generate(workload.Config{Kind: c.Workload, M: c.M, N: n, Seed: seed})
}

// runAlgorithm dispatches one algorithm on the table's instance, reusing
// the shared table and dual-approximation result, and reports its
// wall-clock time.
func runAlgorithm(ctx context.Context, alg Algorithm, tab *moldable.Table, da *dualapprox.Result, demtOpts *core.Options) (*schedule.Schedule, time.Duration, error) {
	inst := tab.Inst
	start := time.Now()
	var (
		sched *schedule.Schedule
		err   error
	)
	switch alg {
	case AlgDEMT:
		var res *core.Result
		// Reuse the shared dual-approximation estimate so the measured time
		// reflects the batch construction, as in the paper's Figure 7.
		opts := core.Options{}
		if demtOpts != nil {
			opts = *demtOpts
		}
		opts.CmaxEstimate = da.Estimate
		res, err = core.ScheduleTable(ctx, tab, &opts)
		if err == nil {
			sched = res.Schedule
		}
	case AlgGang:
		sched, err = baselines.GangContext(ctx, tab)
	case AlgSequential:
		sched, err = baselines.SequentialContext(ctx, tab)
	case AlgListShelf:
		sched, err = baselines.ListGrahamWithAllotmentContext(ctx, inst, da, baselines.ShelfOrder)
	case AlgListWeightedLPT:
		sched, err = baselines.ListGrahamWithAllotmentContext(ctx, inst, da, baselines.WeightedLPT)
	case AlgListSAF:
		sched, err = baselines.ListGrahamWithAllotmentContext(ctx, inst, da, baselines.SmallestAreaFirst)
	default:
		return nil, 0, fmt.Errorf("unknown algorithm %q", alg)
	}
	return sched, time.Since(start), err
}
