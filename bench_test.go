package bicriteria

// Micro-benchmarks of the kernels nothing else measures on their own: the
// LP-relaxation minsum bound, the Graham list loop and the shuffle
// compaction's scoring. The batch knapsack's benchmark lives with the
// knapsack in internal/core. The paper's figures and the ablation studies
// run through the CLI instead: `bicrit exp -figure N` (3-7; paper scale
// with -runs 40 -lp) and `bicrit exp -ablation selection|compaction|bound`.

import (
	"math/rand"
	"testing"

	"bicriteria/internal/listsched"
	"bicriteria/internal/lowerbound"
	"bicriteria/internal/workload"
)

// BenchmarkMinsumLPBound measures the LP-relaxation lower bound (the
// dominant cost of reproducing the figures with the paper's bound).
func BenchmarkMinsumLPBound(b *testing.B) {
	inst, err := workload.Generate(workload.Config{Kind: workload.HighlyParallel, M: 200, N: 100, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lowerbound.MinsumLP(inst, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGrahamList measures the event-driven list scheduler on a large
// rigid instance (the compaction workhorse).
func BenchmarkGrahamList(b *testing.B) {
	items := make([]listsched.Item, 400)
	for i := range items {
		items[i] = listsched.Item{TaskID: i, NProcs: 1 + i%32, Duration: 1 + float64(i%17)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := listsched.GrahamContext(b.Context(), 200, items); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShuffleCompaction measures the DEMT compaction's kernel on the
// same list as BenchmarkGrahamList: the list and 8 shuffles of it are each
// scored from the loop's start times alone, and only the best order's
// processors are swept.
func BenchmarkShuffleCompaction(b *testing.B) {
	base := make([]listsched.Item, 400)
	weights := make([]float64, len(base))
	for i := range base {
		base[i] = listsched.Item{TaskID: i, NProcs: 1 + i%32, Duration: 1 + float64(i%17)}
		weights[i] = float64(1 + i%10)
	}
	r := rand.New(rand.NewSource(1))
	orders := make([][]listsched.Item, 9)
	for k := range orders {
		orders[k] = append([]listsched.Item(nil), base...)
		if k > 0 {
			r.Shuffle(len(base), func(i, j int) { orders[k][i], orders[k][j] = orders[k][j], orders[k][i] })
		}
	}
	// Every order lists the same weights: item i's weight is weights[TaskID].
	w := make([]float64, len(base))
	var loop listsched.Loop
	var placed, best []listsched.Placement
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bestMinsum, bestOrder := 0.0, 0
		for k, items := range orders {
			for j, it := range items {
				w[j] = weights[it.TaskID]
			}
			var err error
			if placed, err = loop.Place(b.Context(), 200, items, placed); err != nil {
				b.Fatal(err)
			}
			if minsum, _ := listsched.Score(items, placed, w); k == 0 || minsum < bestMinsum {
				bestMinsum, bestOrder = minsum, k
				placed, best = best, placed
			}
		}
		loop.Sweep(200, orders[bestOrder], best)
	}
}
