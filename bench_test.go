package bicriteria

// Micro-benchmarks of the three kernels nothing else measures on their
// own: the LP-relaxation minsum bound, the batch knapsack and the Graham
// list loop. The paper's figures and the ablation studies run through the
// CLI instead: `bicrit exp -figure N` (3-7; paper scale with -runs 40 -lp)
// and `bicrit exp -ablation selection|compaction|bound`.

import (
	"testing"

	"bicriteria/internal/knapsack"
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

// BenchmarkKnapsackSelection measures the O(mn) knapsack used by each batch
// at the paper's scale (m=200, n=400).
func BenchmarkKnapsackSelection(b *testing.B) {
	items := make([]knapsack.Item, 400)
	for i := range items {
		items[i] = knapsack.Item{Cost: 1 + i%32, Value: float64(1 + i%10)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := knapsack.MaxValue(items, 200); err != nil {
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
