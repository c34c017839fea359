package obs

import (
	"math"
	"math/rand"
	"testing"

	"bicriteria/internal/stats"
)

// TestBucketQuantileHandCases pins the nearest-rank semantics on a small
// hand-built distribution.
func TestBucketQuantileHandCases(t *testing.T) {
	// 10 samples: 3 at or below 1, 7 at or below 10, 9 at or below 100,
	// 1 beyond every finite bound.
	buckets := []Bucket{
		{Le: 1, Cum: 3},
		{Le: 10, Cum: 7},
		{Le: 100, Cum: 9},
		{Le: math.Inf(1), Cum: 10},
	}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1},              // rank 1 lands in the first bucket
		{0.3, 1},            // rank 3 is still the first bucket
		{0.31, 10},          // rank 4 crosses into the second
		{0.5, 10},           // rank 5
		{0.7, 10},           // rank 7 is the last of the second bucket
		{0.9, 100},          // rank 9
		{0.95, math.Inf(1)}, // rank 10 lives in the overflow bucket
		{1, math.Inf(1)},
		{-1, 1}, // clamped to p=0
		{2, math.Inf(1)},
	}
	for _, c := range cases {
		if got := bucketQuantile(c.p, buckets); got != c.want {
			t.Errorf("bucketQuantile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := bucketQuantile(0.5, nil); got != 0 {
		t.Errorf("empty buckets: got %g, want 0", got)
	}
	if got := bucketQuantile(0.5, []Bucket{{Le: 1, Cum: 0}, {Le: math.Inf(1), Cum: 0}}); got != 0 {
		t.Errorf("zero-count buckets: got %g, want 0", got)
	}
	// Unsorted input is sorted, not trusted.
	shuffled := []Bucket{buckets[2], buckets[0], buckets[3], buckets[1]}
	if got := bucketQuantile(0.5, shuffled); got != 10 {
		t.Errorf("shuffled buckets: got %g, want 10", got)
	}
}

// TestBucketQuantileBoundaryExactOnLogBuckets is the cross-package
// contract: a stats.Histogram mirrored into the registry via SetFrom
// (the exact path the serve layer uses) must yield bit-identical
// quantiles whether asked directly or estimated from the scraped
// cumulative buckets. Exactness holds because both sides use the
// nearest-rank rule over the same log-spaced bucket geometry and return
// bucket boundaries, never interpolations.
func TestBucketQuantileBoundaryExactOnLogBuckets(t *testing.T) {
	const lo, hi, nb = 1e-2, 1e3, 24
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		sh, err := stats.NewHistogram(lo, hi, nb)
		if err != nil {
			t.Fatal(err)
		}
		reg := NewRegistry()
		oh := reg.Histogram("bicrit_q_seconds", "q", LogBuckets(lo, hi, nb))
		n := 1 + r.Intn(200)
		for i := 0; i < n; i++ {
			// Heavy-tailed samples that exercise underflow and overflow too.
			sh.Observe(math.Exp(r.NormFloat64() * 5))
		}
		oh.SetFrom(sh.Snapshot(), sh.Sum())

		cum, _, _ := oh.snapshot()
		bounds := oh.bounds
		buckets := make([]Bucket, len(cum))
		for i := range bounds {
			buckets[i] = Bucket{Le: bounds[i], Cum: float64(cum[i])}
		}
		buckets[len(cum)-1] = Bucket{Le: math.Inf(1), Cum: float64(cum[len(cum)-1])}

		for p := 0.0; p <= 1.0; p += 1.0 / 64 {
			want := sh.Quantile(p)
			got := bucketQuantile(p, buckets)
			if got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
				t.Fatalf("seed %d n %d p %g: bucketQuantile = %v, stats.Quantile = %v", seed, n, p, got, want)
			}
		}
	}
}
