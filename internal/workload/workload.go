// Package workload generates synthetic moldable-task instances following
// the experimental setting of section 4.1 of the paper:
//
//   - sequential processing times drawn either uniformly in [1,10] or from a
//     mixed model (70% "small" tasks, gaussian mean 1 / stddev 0.5, 30%
//     "large" tasks, gaussian mean 10 / stddev 5);
//
//   - moldability obtained either from the recurrence
//     p(j) = p(j-1) * (X + j) / (1 + j) with X drawn from a gaussian
//     truncated to [0,1] (mean 0.9 for highly parallel tasks, mean 0.1 for
//     weakly parallel tasks), or from a Cirne–Berman style model built on
//     Downey's speedup function;
//
//   - task weights (priorities) drawn uniformly in [1,10].
//
// Each generator is deterministic for a given seed.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"bicriteria/internal/moldable"
)

// Kind identifies one of the four workload families evaluated by the paper.
type Kind int

const (
	// WeaklyParallel: uniform sequential times, weakly parallel recurrence
	// (Figure 3 of the paper).
	WeaklyParallel Kind = iota
	// HighlyParallel: uniform sequential times, highly parallel recurrence
	// (Figure 4).
	HighlyParallel
	// Mixed: 70% small weakly-parallel tasks, 30% large highly-parallel
	// tasks (Figure 5).
	Mixed
	// Cirne: Cirne–Berman moldable-job model with uniform sequential times
	// (Figure 6).
	Cirne
)

// String returns the workload family name used in figures and CLI flags.
func (k Kind) String() string {
	switch k {
	case WeaklyParallel:
		return "weakly-parallel"
	case HighlyParallel:
		return "highly-parallel"
	case Mixed:
		return "mixed"
	case Cirne:
		return "cirne"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind converts a CLI string into a workload Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "weakly-parallel", "weakly", "weak":
		return WeaklyParallel, nil
	case "highly-parallel", "highly", "high":
		return HighlyParallel, nil
	case "mixed":
		return Mixed, nil
	case "cirne", "cirne-berman":
		return Cirne, nil
	}
	return 0, fmt.Errorf("workload: unknown kind %q (want weakly-parallel, highly-parallel, mixed or cirne)", s)
}

// Kinds lists all workload families in figure order.
func Kinds() []Kind { return []Kind{WeaklyParallel, HighlyParallel, Mixed, Cirne} }

// Config drives instance generation.
type Config struct {
	// Kind selects the workload family.
	Kind Kind
	// M is the number of processors of the target cluster (the paper uses
	// 200).
	M int
	// N is the number of tasks (the paper sweeps 25..400).
	N int
	// Seed makes the generation deterministic.
	Seed int64

	// MinSeqTime / MaxSeqTime bound the uniform sequential-time model
	// (default 1 and 10 as in the paper).
	MinSeqTime float64
	MaxSeqTime float64
	// SmallTaskRatio is the proportion of small tasks in the mixed model
	// (default 0.7).
	SmallTaskRatio float64
	// MinWeight / MaxWeight bound the uniform weight (priority) model
	// (default 1 and 10).
	MinWeight float64
	MaxWeight float64
}

// withDefaults fills unset fields with the paper's values.
func (c Config) withDefaults() Config {
	if c.MinSeqTime == 0 && c.MaxSeqTime == 0 {
		c.MinSeqTime, c.MaxSeqTime = 1, 10
	}
	if c.SmallTaskRatio == 0 {
		c.SmallTaskRatio = 0.7
	}
	if c.MinWeight == 0 && c.MaxWeight == 0 {
		c.MinWeight, c.MaxWeight = 1, 10
	}
	return c
}

// validate checks the configuration.
func (c Config) validate() error {
	c = c.withDefaults()
	if c.M < 1 {
		return fmt.Errorf("workload: M must be >= 1, got %d", c.M)
	}
	if c.N < 1 {
		return fmt.Errorf("workload: N must be >= 1, got %d", c.N)
	}
	if c.MinSeqTime <= 0 || c.MaxSeqTime < c.MinSeqTime {
		return fmt.Errorf("workload: invalid sequential time range [%g,%g]", c.MinSeqTime, c.MaxSeqTime)
	}
	if c.SmallTaskRatio < 0 || c.SmallTaskRatio > 1 {
		return fmt.Errorf("workload: SmallTaskRatio must be in [0,1], got %g", c.SmallTaskRatio)
	}
	if c.MinWeight < 0 || c.MaxWeight < c.MinWeight {
		return fmt.Errorf("workload: invalid weight range [%g,%g]", c.MinWeight, c.MaxWeight)
	}
	switch c.Kind {
	case WeaklyParallel, HighlyParallel, Mixed, Cirne:
	default:
		return fmt.Errorf("workload: unknown kind %d", int(c.Kind))
	}
	return nil
}

// Generate builds a random instance according to the configuration.
func Generate(cfg Config) (*moldable.Instance, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	tasks := make([]moldable.Task, cfg.N)
	for i := 0; i < cfg.N; i++ {
		tasks[i] = generateTask(r, cfg, i)
	}
	return moldable.NewInstance(cfg.M, tasks), nil
}

// generateTask draws one task according to the workload family.
func generateTask(r *rand.Rand, cfg Config, id int) moldable.Task {
	weight := uniform(r, cfg.MinWeight, cfg.MaxWeight)
	var times []float64
	switch cfg.Kind {
	case WeaklyParallel:
		seq := uniform(r, cfg.MinSeqTime, cfg.MaxSeqTime)
		times = recurrenceTimes(r, seq, cfg.M, weaklyParallelMean)
	case HighlyParallel:
		seq := uniform(r, cfg.MinSeqTime, cfg.MaxSeqTime)
		times = recurrenceTimes(r, seq, cfg.M, highlyParallelMean)
	case Mixed:
		if r.Float64() < cfg.SmallTaskRatio {
			seq := truncatedGaussian(r, smallTaskMean, smallTaskStdDev, minPositiveTime, math.Inf(1))
			times = recurrenceTimes(r, seq, cfg.M, weaklyParallelMean)
		} else {
			seq := truncatedGaussian(r, largeTaskMean, largeTaskStdDev, minPositiveTime, math.Inf(1))
			times = recurrenceTimes(r, seq, cfg.M, highlyParallelMean)
		}
	case Cirne:
		seq := uniform(r, cfg.MinSeqTime, cfg.MaxSeqTime)
		times = cirneTimes(r, seq, cfg.M)
	}
	return moldable.Task{ID: id, Weight: weight, Times: times}
}

// Constants of the paper's generation models.
const (
	highlyParallelMean = 0.9
	weaklyParallelMean = 0.1
	parallelismStdDev  = 0.2
	smallTaskMean      = 1.0
	smallTaskStdDev    = 0.5
	largeTaskMean      = 10.0
	largeTaskStdDev    = 5.0
	// minPositiveTime keeps gaussian sequential times strictly positive.
	minPositiveTime = 0.05
)

// recurrenceTimes builds the moldable time vector from the sequential time
// using the paper's recurrence, with the parallelism parameter X drawn per
// step from a gaussian with the given mean (0.9 highly parallel / 0.1 weakly
// parallel) and standard deviation 0.2, truncated to [0, 1].
//
// Note on the formula: the paper prints p(j) = p(j-1)*(X+j)/(1+j) and states
// that a mean of 0.9 yields quasi-linear speedups. As printed, X close to 1
// makes the ratio close to 1 (no speedup at all), i.e. the formula and the
// text disagree on the orientation of X. We follow the *behaviour* described
// by the text (0.9 => quasi-linear speedup, 0.1 => speedup close to 1),
// which means using the factor ((1-X)+j)/(1+j). The recurrence produces
// monotonic tasks by construction (non-increasing times, non-decreasing
// work) because the factor stays within [j/(1+j), 1].
func recurrenceTimes(r *rand.Rand, seq float64, m int, mean float64) []float64 {
	times := make([]float64, m)
	times[0] = seq
	for j := 2; j <= m; j++ {
		x := truncatedGaussian(r, mean, parallelismStdDev, 0, 1)
		times[j-1] = times[j-2] * ((1 - x) + float64(j)) / (1 + float64(j))
	}
	return times
}

// uniform draws uniformly from [lo, hi].
func uniform(r *rand.Rand, lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// truncatedGaussian draws from N(mean, stddev) and redraws until the value
// falls inside [lo, hi], as prescribed by the paper ("any random value
// smaller than 0 and larger than 1 are ignored and recomputed").
func truncatedGaussian(r *rand.Rand, mean, stddev, lo, hi float64) float64 {
	for i := 0; i < 10000; i++ {
		v := mean + stddev*r.NormFloat64()
		if v >= lo && v <= hi {
			return v
		}
	}
	// Practically unreachable; clamp as a safe fallback.
	return math.Min(math.Max(mean, lo), hi)
}

// EnforceMonotony clamps a processing-time vector so that times are
// non-increasing and work is non-decreasing with the allocation, preserving
// the sequential time. It is used for models (such as speedup-curve based
// ones) where floating-point noise could break strict monotony.
func EnforceMonotony(times []float64) {
	for k := 2; k <= len(times); k++ {
		lo := times[k-2] * float64(k-1) / float64(k) // work non-decreasing
		hi := times[k-2]                             // time non-increasing
		if times[k-1] > hi {
			times[k-1] = hi
		}
		if times[k-1] < lo {
			times[k-1] = lo
		}
	}
}
