package cluster

import (
	"math"
	"math/rand"
	"testing"
)

// TestFirstFloat64MatchesMathRand checks the O(1) first draw against the
// generator it stands in for on 100,000 random seeds of either sign and on
// the edges of the seed reduction: 0, ±1, the extremes of int64, multiples
// of 2^31−1 and their neighbours, and the seed 0 is replaced by.
func TestFirstFloat64MatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, lehmerZero, -lehmerZero, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for k := int64(-4); k <= 4; k++ {
		for d := int64(-2); d <= 2; d++ {
			seeds = append(seeds, k*lehmerMod+d)
		}
	}
	for _, k := range []int64{1 << 20, 1 << 31, math.MaxInt64 / lehmerMod} {
		seeds = append(seeds, k*lehmerMod, k*lehmerMod+1, k*lehmerMod-1, -k*lehmerMod, -k*lehmerMod+1, -k*lehmerMod-1)
	}
	rng := rand.New(rand.NewSource(28))
	for len(seeds) < 100_000 {
		s := rng.Int63()
		if rng.Intn(2) == 0 {
			s = -s
		}
		if rng.Intn(4) == 0 {
			s %= 1 << 32 // small magnitudes, where the reduction is the identity
		}
		seeds = append(seeds, s)
	}
	for _, s := range seeds {
		if got, want := firstFloat64(s), rand.New(rand.NewSource(s)).Float64(); got != want {
			t.Fatalf("seed %d: firstFloat64 = %v, math/rand = %v", s, got, want)
		}
	}
}

// TestFloat64OrRedrawMatchesMathRand covers the branch no practical seed
// reaches: a first draw whose quotient rounds to 1 is redrawn by the real
// generator, and one just below keeps the plain quotient.
func TestFloat64OrRedrawMatchesMathRand(t *testing.T) {
	for _, s := range []int64{0, 7, -7, lehmerMod, math.MinInt64} {
		for _, v := range []int64{1<<63 - 1, 1<<63 - 512} {
			if float64(v)/(1<<63) != 1 {
				t.Fatalf("draw %d does not round to 1; the test needs one that does", v)
			}
			got, want := float64OrRedraw(v, s), rand.New(rand.NewSource(s)).Float64()
			if got != want || got >= 1 {
				t.Fatalf("seed %d, draw %d: float64OrRedraw = %v, want the generator's %v", s, v, got, want)
			}
		}
		below := int64(1<<63 - 1024)
		if got, want := float64OrRedraw(below, s), float64(below)/(1<<63); got != want || got >= 1 {
			t.Fatalf("seed %d, draw %d: float64OrRedraw = %v, want the quotient %v", s, below, got, want)
		}
	}
}

// TestUniformNoiseMatchesMathRand pins the perturbation to the formula it
// had when every call seeded its own generator.
func TestUniformNoiseMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -3, math.MaxInt64} {
		for _, frac := range []float64{0.05, 0.2, 0.9} {
			f := noise(t, frac, seed)
			for _, id := range []int{-5, -1, 0, 1, 2, 1000, math.MaxInt32} {
				r := rand.New(rand.NewSource(seed ^ (int64(id)+1)*0x9E3779B9))
				want := 3.5 * (1 - frac + 2*frac*r.Float64())
				if got := f(id, 3.5); got != want {
					t.Fatalf("seed %d frac %g task %d: %v, want %v", seed, frac, id, got, want)
				}
			}
		}
	}
}
