package core

import "testing"

// BenchmarkKnapsackSelection measures the O(mn) knapsack used by each batch
// at the paper's scale (m=200, n=400), on one knapsack reused from solve
// to solve as the batches of a run reuse it.
func BenchmarkKnapsackSelection(b *testing.B) {
	items := make([]batchItem, 400)
	for i := range items {
		items[i] = batchItem{alloc: 1 + i%32, weight: float64(1 + i%10)}
	}
	var k knapsack
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := k.maxValue(items, 200); err != nil {
			b.Fatal(err)
		}
	}
}
