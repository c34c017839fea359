package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	var vals []float64
	for i := 10; i >= 1; i-- {
		vals = append(vals, float64(i))
	}
	q1, q2, q3 := quartiles(vals)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got, want := spread(vals), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %g, want %g", got, want)
	}
	// Two samples: the exclusive method clamps to the range.
	if q1, _, q3 := quartiles([]float64{3, 1}); q1 != 1 || q3 != 3 {
		t.Fatalf("quartiles of two samples = %g %g, want 1 3", q1, q3)
	}
	if !math.IsNaN(median(nil)) || orZero(median(nil)) != 0 {
		t.Fatal("median of nothing must be NaN and report as 0")
	}
	if spread([]float64{0, 0, 0}) != 0 {
		t.Fatal("spread around a zero median must be 0")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending: percentile must sort
		}
		return out
	}
	// 200 samples: the 95th percentile is the 190th value, 10 lie beyond.
	v, ok := percentile(samples(200), 95)
	if !ok || v != 190 {
		t.Fatalf("p95 of 200 = %g, %v; want 190, true", v, ok)
	}
	// 199 samples: rank ceil(189.05) = 190, only 9 beyond.
	if v, ok := percentile(samples(199), 95); ok || v != 190 {
		t.Fatalf("p95 of 199 = %g, %v; want 190, false", v, ok)
	}
	// The median needs 20 samples to have ten beyond it.
	if _, ok := percentile(samples(20), 50); !ok {
		t.Fatal("p50 of 20 samples has ten beyond it")
	}
	if _, ok := percentile(samples(19), 50); ok {
		t.Fatal("p50 of 19 samples has only nine beyond it")
	}
	if _, ok := percentile(nil, 95); ok {
		t.Fatal("no samples, no percentile")
	}
}
