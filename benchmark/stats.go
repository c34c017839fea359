package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of the samples.
func sorted(samples []float64) []float64 {
	out := append([]float64(nil), samples...)
	sort.Float64s(out)
	return out
}

// quantileSorted interpolates the p-quantile (0 <= p <= 1) of an ascending
// slice the way Python's statistics.quantiles(method="exclusive") does:
// the rank is p*(n+1), clamped to the sample range. The driver takes its
// quartiles with that function, so -agree reproduces its spreads.
func quantileSorted(s []float64, p float64) float64 {
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return s[0]
	}
	rank := p * float64(n+1)
	lo := int(math.Floor(rank))
	if lo < 1 {
		return s[0]
	}
	if lo >= n {
		return s[n-1]
	}
	frac := rank - float64(lo)
	return s[lo-1] + frac*(s[lo]-s[lo-1])
}

// median returns the median of the samples (NaN when there are none).
func median(samples []float64) float64 { return quantileSorted(sorted(samples), 0.5) }

// quartiles returns the first quartile, the median and the third quartile.
func quartiles(samples []float64) (q1, q2, q3 float64) {
	s := sorted(samples)
	return quantileSorted(s, 0.25), quantileSorted(s, 0.5), quantileSorted(s, 0.75)
}

// spread is the distance between the quartiles as a share of the median:
// the run-to-run noise measure the acceptance rule of the benchmark uses.
func spread(samples []float64) float64 {
	q1, q2, q3 := quartiles(samples)
	if q2 == 0 || math.IsNaN(q2) {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// minBeyond is how many samples must lie beyond a percentile before the
// harness reports it: below that the tail is a handful of outliers, not a
// distribution.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of the
// samples. ok is false — and the value must not be reported — when fewer
// than minBeyond samples lie beyond it.
func percentile(samples []float64, p float64) (value float64, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	s := sorted(samples)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n-rank >= minBeyond
}

// mean returns the arithmetic mean (0 for no samples).
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	return sum(samples) / float64(len(samples))
}

// sum adds the samples.
func sum(samples []float64) float64 {
	total := 0.0
	for _, v := range samples {
		total += v
	}
	return total
}

// orZero maps the NaN of an empty sample set to 0, the value a metric of a
// layer the workload never entered reads.
func orZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
