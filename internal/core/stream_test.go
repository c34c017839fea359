package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// drawTrace takes a fixed mix of Intn, Shuffle and Float64 draws, the
// calls the shuffle compaction makes, long enough to cross several memo
// chunks, and records what they returned.
func drawTrace(r *rand.Rand) []float64 {
	var out []float64
	perm := make([]int, 37)
	for round := 0; round < 40; round++ {
		out = append(out, float64(r.Intn(1+round)), float64(r.Intn(1<<31-1)))
		for i := range perm {
			perm[i] = i
		}
		r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for _, p := range perm {
			out = append(out, float64(p))
		}
		out = append(out, r.Float64())
	}
	return out
}

// TestShuffleStreamMatchesMathRand checks that the memoized shuffle stream
// draws exactly what a freshly seeded math/rand source draws, for edge
// seeds and scenario seeds, for a reader that starts after others have
// grown the memo, after a switch to another seed and back, and for two
// seeds read on concurrent goroutines.
func TestShuffleStreamMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 1<<31 - 1, 1<<62 + 5, 5, 7}
	want := make(map[int64][]float64, len(seeds))
	for _, seed := range seeds {
		want[seed] = drawTrace(rand.New(rand.NewSource(seed)))
	}
	for _, seed := range seeds {
		for pass := 0; pass < 2; pass++ { // the second pass reads a grown memo
			if got := drawTrace(seededRand(seed)); !slices.Equal(got, want[seed]) {
				t.Fatalf("seed %d, pass %d: memoized draws differ from rand.NewSource's", seed, pass)
			}
		}
	}

	r := seededRand(3)
	r.Seed(1)
	if got := drawTrace(r); !slices.Equal(got, want[1]) {
		t.Fatal("after Seed(1): draws differ from rand.NewSource(1)'s")
	}

	// Two seeds interleaved: each goroutine's memo is dropped by the
	// other's while it still reads it.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		seed := seeds[1+g%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				if got := drawTrace(seededRand(seed)); !slices.Equal(got, want[seed]) {
					t.Errorf("goroutine %d, seed %d, rep %d: memoized draws differ from rand.NewSource's", g, seed, rep)
					return
				}
			}
		}()
	}
	wg.Wait()
}
