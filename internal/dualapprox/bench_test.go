package dualapprox

import (
	"math"
	"testing"
)

// BenchmarkMinCostPartition measures the two-shelf knapsack of one
// bisection step at the paper's scale (m=200, n=400), on one solver reused
// from solve to solve as the steps of a bisection reuse it. Every fifth of
// the first 40 items has no allocation meeting half the deadline, so it is
// forced onto the long shelf; together they take 116 of the 200
// processors.
func BenchmarkMinCostPartition(b *testing.B) {
	const m, n = 200, 400
	cost1 := make([]int, n)
	work1 := make([]float64, n)
	work2 := make([]float64, n)
	for i := range cost1 {
		cost1[i] = 1 + i%32
		work1[i] = float64(cost1[i]) * float64(10+i%7)
		work2[i] = 1.5 * work1[i]
		if i%5 == 0 && i < 40 {
			work2[i] = math.Inf(1)
		}
	}
	var s shelfSolver
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.minCostPartition(cost1, work1, work2, m); err != nil {
			b.Fatal(err)
		}
	}
}
