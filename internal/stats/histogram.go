package stats

import (
	"fmt"
	"math"
)

// Histogram counts samples in fixed log-spaced buckets: bucket i covers
// [Lo * r^i, Lo * r^(i+1)) for a constant ratio r. Log spacing matches the
// heavy-tailed distributions this library measures (stretch, wait times):
// constant relative resolution over many orders of magnitude with a small,
// fixed bucket count, so a long-running service can expose distributions
// without keeping every sample.
//
// Samples below Lo and at or above the last bucket's upper bound are
// counted separately (Under, Over) instead of being clamped, so saturation
// is visible. The zero value is not usable; build with NewHistogram.
type Histogram struct {
	lo     float64
	ratio  float64
	counts []int
	under  int
	over   int
	total  int
	sum    float64
}

// HistogramBucket is one bucket of a snapshot: the half-open value range
// [Lo, Hi) and the number of samples that fell in it.
type HistogramBucket struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Count int     `json:"count"`
}

// HistogramSnapshot is the JSON-friendly digest of a histogram.
type HistogramSnapshot struct {
	// Count is the total number of observations, including Under and Over.
	Count int `json:"count"`
	// Under and Over count samples below the first bucket and at or above
	// the last bucket's upper bound.
	Under int `json:"under,omitempty"`
	Over  int `json:"over,omitempty"`
	// Buckets lists every bucket in increasing value order, empty ones
	// included (the shape stays fixed over the histogram's life).
	Buckets []HistogramBucket `json:"buckets"`
}

// NewHistogram builds a log-spaced histogram of the given bucket count
// covering [lo, hi): the first bucket starts at lo, the last ends at hi,
// and consecutive bucket bounds grow by the constant ratio (hi/lo)^(1/n).
func NewHistogram(lo, hi float64, buckets int) (*Histogram, error) {
	if !(lo > 0) || math.IsInf(lo, 0) {
		return nil, fmt.Errorf("stats: histogram lower bound must be positive and finite, got %g", lo)
	}
	if !(hi > lo) || math.IsInf(hi, 0) {
		return nil, fmt.Errorf("stats: histogram upper bound must exceed the lower bound %g, got %g", lo, hi)
	}
	if buckets < 1 {
		return nil, fmt.Errorf("stats: histogram needs at least one bucket, got %d", buckets)
	}
	return &Histogram{
		lo:     lo,
		ratio:  math.Pow(hi/lo, 1/float64(buckets)),
		counts: make([]int, buckets),
	}, nil
}

// Observe adds one sample. NaN samples are ignored.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.total++
	h.sum += v
	if v < h.lo {
		h.under++
		return
	}
	// Index by logarithm, then repair the boundary cases floating point
	// gets wrong: a sample must never land below its bucket's lower bound
	// or at/above its upper bound.
	i := int(math.Log(v/h.lo) / math.Log(h.ratio))
	if i < 0 {
		i = 0
	}
	for i < len(h.counts) && v >= h.bound(i+1) {
		i++
	}
	for i > 0 && v < h.bound(i) {
		i--
	}
	if i >= len(h.counts) {
		h.over++
		return
	}
	h.counts[i]++
}

// bound returns the i-th bucket boundary, lo * ratio^i.
func (h *Histogram) bound(i int) float64 {
	return h.lo * math.Pow(h.ratio, float64(i))
}

// Sum returns the sum of all observed values, under- and overflow
// included, matching the Prometheus histogram _sum convention.
func (h *Histogram) Sum() float64 { return h.sum }

// Snapshot returns the current bucket counts in a JSON-friendly shape.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.total,
		Under:   h.under,
		Over:    h.over,
		Buckets: make([]HistogramBucket, len(h.counts)),
	}
	for i, c := range h.counts {
		s.Buckets[i] = HistogramBucket{Lo: h.bound(i), Hi: h.bound(i + 1), Count: c}
	}
	return s
}

// Quantile returns an upper bound on the p-th quantile (p in [0, 1]): the
// upper bound of the bucket holding the nearest-rank sample. Underflow
// samples resolve to the first bucket's lower bound, overflow samples to
// +Inf. An empty histogram returns 0; p is clamped to [0, 1].
func (h *Histogram) Quantile(p float64) float64 {
	if h.total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := int(math.Ceil(p * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	seen := h.under
	if rank <= seen {
		return h.lo
	}
	for i, c := range h.counts {
		seen += c
		if rank <= seen {
			return h.bound(i + 1)
		}
	}
	return math.Inf(1)
}
