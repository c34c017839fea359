package stats

import (
	"math"
	"testing"
)

func TestNewHistogramValidation(t *testing.T) {
	cases := []struct {
		lo, hi  float64
		buckets int
	}{
		{0, 10, 4},
		{-1, 10, 4},
		{1, 1, 4},
		{10, 1, 4},
		{1, 100, 0},
		{math.Inf(1), math.Inf(1), 4},
		{1, math.Inf(1), 4},
	}
	for _, c := range cases {
		if _, err := NewHistogram(c.lo, c.hi, c.buckets); err == nil {
			t.Errorf("NewHistogram(%g, %g, %d): expected error", c.lo, c.hi, c.buckets)
		}
	}
	if _, err := NewHistogram(1, 1000, 12); err != nil {
		t.Fatalf("valid histogram rejected: %v", err)
	}
}

func TestHistogramBucketBoundsAreLogSpaced(t *testing.T) {
	h, err := NewHistogram(1, 10000, 8)
	if err != nil {
		t.Fatal(err)
	}
	s := h.Snapshot()
	if len(s.Buckets) != 8 {
		t.Fatalf("got %d buckets, want 8", len(s.Buckets))
	}
	if math.Abs(s.Buckets[0].Lo-1) > 1e-12 {
		t.Fatalf("first bucket starts at %g, want 1", s.Buckets[0].Lo)
	}
	if math.Abs(s.Buckets[7].Hi-10000) > 1e-6 {
		t.Fatalf("last bucket ends at %g, want 10000", s.Buckets[7].Hi)
	}
	ratio := s.Buckets[0].Hi / s.Buckets[0].Lo
	for i, b := range s.Buckets {
		if r := b.Hi / b.Lo; math.Abs(r-ratio) > 1e-9 {
			t.Fatalf("bucket %d has ratio %g, want constant %g", i, r, ratio)
		}
		if i > 0 && math.Abs(b.Lo-s.Buckets[i-1].Hi) > 1e-9*b.Lo {
			t.Fatalf("bucket %d starts at %g but bucket %d ends at %g", i, b.Lo, i-1, s.Buckets[i-1].Hi)
		}
	}
}

func TestHistogramObserve(t *testing.T) {
	h, err := NewHistogram(1, 100, 4) // bounds 1, ~3.16, 10, ~31.6, 100
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0.5, 1, 2, 5, 10, 20, 50, 99.99, 100, 1e6, math.NaN()} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if h.total != 10 || s.Count != 10 {
		t.Fatalf("count = %d / %d, want 10 (NaN ignored)", h.total, s.Count)
	}
	if s.Under != 1 {
		t.Fatalf("under = %d, want 1 (the 0.5 sample)", s.Under)
	}
	// Expectations are recomputed from the actual bounds to stay robust to
	// floating-point boundary placement (the computed top bound may land an
	// ulp above 100, absorbing the 100 sample into the last bucket).
	wantCounts := make([]int, 4)
	wantOver := 0
	for _, v := range []float64{1, 2, 5, 10, 20, 50, 99.99, 100, 1e6} {
		placed := false
		for i, b := range s.Buckets {
			if v >= b.Lo && v < b.Hi {
				wantCounts[i]++
				placed = true
				break
			}
		}
		if !placed {
			wantOver++
		}
	}
	if s.Over != wantOver {
		t.Fatalf("over = %d, want %d", s.Over, wantOver)
	}
	total := 0
	for i, b := range s.Buckets {
		if b.Count != wantCounts[i] {
			t.Fatalf("bucket %d [%g, %g) has %d samples, want %d", i, b.Lo, b.Hi, b.Count, wantCounts[i])
		}
		total += b.Count
	}
	if total+s.Under+s.Over != s.Count {
		t.Fatalf("bucket counts %d + under %d + over %d != total %d", total, s.Under, s.Over, s.Count)
	}
}

func TestHistogramBoundarySamplesStayInRange(t *testing.T) {
	h, err := NewHistogram(1, 1e6, 60)
	if err != nil {
		t.Fatal(err)
	}
	s := h.Snapshot()
	// Hammer every boundary from both sides: each sample must land in a
	// bucket whose range contains it, never off by one.
	for _, b := range s.Buckets {
		for _, v := range []float64{b.Lo, math.Nextafter(b.Lo, 0), math.Nextafter(b.Hi, 0)} {
			probe, _ := NewHistogram(1, 1e6, 60)
			probe.Observe(v)
			ps := probe.Snapshot()
			if v < 1 {
				if ps.Under != 1 {
					t.Fatalf("sample %g below range not counted as under", v)
				}
				continue
			}
			for i, pb := range ps.Buckets {
				if pb.Count == 1 {
					if v < pb.Lo || v >= pb.Hi {
						t.Fatalf("sample %.17g landed in bucket %d [%.17g, %.17g)", v, i, pb.Lo, pb.Hi)
					}
				}
			}
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h, err := NewHistogram(1, 1024, 10) // bounds are exact powers of 2
	if err != nil {
		t.Fatal(err)
	}
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %g, want 0", q)
	}
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // first bucket [1, 2)
	}
	for i := 0; i < 100; i++ {
		h.Observe(100) // bucket [64, 128)
	}
	if q := h.Quantile(0.25); math.Abs(q-2) > 1e-9 {
		t.Fatalf("p25 = %g, want 2 (upper bound of the first bucket)", q)
	}
	if q := h.Quantile(0.99); math.Abs(q-128) > 1e-9 {
		t.Fatalf("p99 = %g, want 128", q)
	}
	h.Observe(1e9)
	if q := h.Quantile(1); !math.IsInf(q, 1) {
		t.Fatalf("p100 with overflow = %g, want +Inf", q)
	}
	probe, _ := NewHistogram(1, 1024, 10)
	probe.Observe(0.1)
	if q := probe.Quantile(0.5); math.Abs(q-1) > 1e-12 {
		t.Fatalf("all-underflow quantile = %g, want the lower bound 1", q)
	}
}
