// Package stats provides the small statistical helpers used by the
// experiment harness: nearest-rank percentiles and tail summaries of
// samples, and the ratio-of-sums aggregation of competitive ratios
// recommended by Jain ("The art of computer systems performance
// analysis"), which is how the paper averages its performance ratios
// (section 4.2).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// nearestRank returns the p-th percentile of a non-empty sorted sample
// under the nearest-rank definition: the smallest value v such that at
// least p% of the sample is <= v. p outside [0, 100] is clamped.
func nearestRank(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// Percentile returns the p-th percentile (p in [0, 100]) of the sample
// using the nearest-rank definition. The input is not modified.
//
// Edge cases are part of the contract, not accidents of the
// implementation: an empty sample yields 0 (there is no meaningful
// percentile, and callers aggregate-and-print without checking); a
// single-element sample yields that element for every p; p at or below 0
// yields the minimum, p at or above 100 the maximum (clamping, never an
// error). NaN inputs are not handled — callers must filter them, as every
// producer in this library already guarantees NaN-free samples.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return nearestRank(sorted, p)
}

// Tail digests a sample by its mean and tail percentiles.
type Tail struct {
	Mean float64
	P50  float64
	P95  float64
	P99  float64
}

// TailSummary computes the mean and the nearest-rank p50/p95/p99 of the
// sample with a single copy and sort (cheaper than three Percentile
// calls). The input is not modified.
//
// Edge cases follow Percentile's contract: an empty sample yields the
// zero Tail (all fields 0), and a single-element sample yields that
// element as the mean and every percentile.
func TailSummary(values []float64) Tail {
	if len(values) == 0 {
		return Tail{}
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return TailOfSorted(sorted)
}

// TailOfSorted is TailSummary for a sample the caller keeps sorted: no
// copy, no sort. Accumulators that snapshot repeatedly (once per batch)
// should keep their sample in sort.Float64s order by sorting only each
// snapshot's new values and merging them in, then call this: re-sorting
// the whole sample every time is not cheap even when it is almost sorted.
func TailOfSorted(sorted []float64) Tail {
	if len(sorted) == 0 {
		return Tail{}
	}
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	return Tail{
		Mean: sum / float64(len(sorted)),
		P50:  nearestRank(sorted, 50),
		P95:  nearestRank(sorted, 95),
		P99:  nearestRank(sorted, 99),
	}
}

// RatioAggregator accumulates pairs (value, reference) and reports the
// ratio of sums together with the minimum and maximum per-pair ratio.
type RatioAggregator struct {
	valueSum float64
	refSum   float64
	ratios   []float64
}

// Add records one observation. Reference values that are not strictly
// positive are rejected to avoid silent division by zero.
func (r *RatioAggregator) Add(value, reference float64) error {
	if reference <= 0 || math.IsNaN(reference) || math.IsInf(reference, 0) {
		return fmt.Errorf("stats: invalid reference value %g", reference)
	}
	if value < 0 || math.IsNaN(value) || math.IsInf(value, 0) {
		return fmt.Errorf("stats: invalid value %g", value)
	}
	r.valueSum += value
	r.refSum += reference
	r.ratios = append(r.ratios, value/reference)
	return nil
}

// Count returns the number of recorded observations.
func (r *RatioAggregator) Count() int { return len(r.ratios) }

// Ratio is the aggregated view of a RatioAggregator.
type Ratio struct {
	// Mean is the ratio of sums (sum of values / sum of references).
	Mean float64
	// Min and Max are the extreme per-observation ratios.
	Min float64
	Max float64
	// Count is the number of observations.
	Count int
}

// Result returns the aggregated ratio. An empty aggregator returns a zero
// Ratio.
func (r *RatioAggregator) Result() Ratio {
	if len(r.ratios) == 0 {
		return Ratio{}
	}
	out := Ratio{Mean: r.valueSum / r.refSum, Count: len(r.ratios)}
	out.Min = math.Inf(1)
	out.Max = math.Inf(-1)
	for _, v := range r.ratios {
		if v < out.Min {
			out.Min = v
		}
		if v > out.Max {
			out.Max = v
		}
	}
	return out
}

// String formats a ratio as "mean [min, max]".
func (r Ratio) String() string {
	return fmt.Sprintf("%.3f [%.3f, %.3f]", r.Mean, r.Min, r.Max)
}
