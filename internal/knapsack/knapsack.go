// Package knapsack provides the 0/1 knapsack dynamic program used by the
// DEMT algorithm to select the tasks of each batch (maximize the total
// weight of the selected tasks under the m-processor budget) and by the
// dual-approximation two-shelf construction (minimize the work moved to the
// second shelf under the first-shelf processor budget).
//
// Both dynamic programs run in O(n * capacity) time. Each call allocates
// one flat n * (capacity+1) table of decisions for the reconstruction and
// one or two value rows of capacity+1 entries, whatever n is.
package knapsack

import (
	"fmt"
	"math"
)

// Item is a candidate for selection.
type Item struct {
	// Cost is the integer resource consumption (number of processors).
	Cost int
	// Value is the profit of selecting the item (task weight).
	Value float64
}

// Result is the outcome of a knapsack optimization.
type Result struct {
	// Selected holds the indices (into the input slice) of chosen items, in
	// increasing order.
	Selected []int
	// TotalValue is the sum of the selected items' values.
	TotalValue float64
	// TotalCost is the sum of the selected items' costs.
	TotalCost int
}

// MaxValue solves the 0/1 knapsack problem: choose a subset of items with
// total cost at most capacity maximizing the total value. Items with cost
// larger than the capacity are never selected; items with non-positive cost
// are rejected with an error (the scheduling use-cases always have cost >= 1).
//
// The dynamic program runs in O(n * capacity) time and space, matching the
// O(mn) complexity quoted in section 3.2 of the paper.
func MaxValue(items []Item, capacity int) (*Result, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("knapsack: negative capacity %d", capacity)
	}
	for i, it := range items {
		if it.Cost <= 0 {
			return nil, fmt.Errorf("knapsack: item %d has non-positive cost %d", i, it.Cost)
		}
		if math.IsNaN(it.Value) || math.IsInf(it.Value, 0) || it.Value < 0 {
			return nil, fmt.Errorf("knapsack: item %d has invalid value %g", i, it.Value)
		}
	}
	n := len(items)
	// best[j] = max value achievable with capacity j considering the first i
	// items; take[i*width+j] records whether item i is taken at capacity j.
	width := capacity + 1
	best := make([]float64, width)
	take := make([]bool, n*width)
	for i := 0; i < n; i++ {
		it := items[i]
		if it.Cost > capacity {
			continue
		}
		row := take[i*width : (i+1)*width]
		for j := capacity; j >= it.Cost; j-- {
			if cand := best[j-it.Cost] + it.Value; cand > best[j]+1e-12 {
				best[j] = cand
				row[j] = true
			}
		}
	}
	res := &Result{TotalValue: best[capacity]}
	// Reconstruct the selection from the last item backwards.
	j := capacity
	for i := n - 1; i >= 0; i-- {
		if j >= 0 && take[i*width+j] {
			res.Selected = append(res.Selected, i)
			res.TotalCost += items[i].Cost
			j -= items[i].Cost
		}
	}
	// Reverse to increasing index order.
	for a, b := 0, len(res.Selected)-1; a < b; a, b = a+1, b-1 {
		res.Selected[a], res.Selected[b] = res.Selected[b], res.Selected[a]
	}
	return res, nil
}

// MinCostPartition solves the two-shelf assignment problem used by the
// dual-approximation algorithm: each item must go either to shelf 1 (using
// cost1[i] processors of the shelf-1 budget, incurring work1[i]) or to
// shelf 2 (incurring work2[i], no shelf-1 processors). Items with
// work2[i] = +Inf are forced to shelf 1. The function minimizes the total
// work subject to the shelf-1 processor budget and returns, for each item,
// whether it is placed on shelf 1.
//
// It returns an error when the forced items alone exceed the budget or an
// item cannot be placed anywhere.
func MinCostPartition(cost1 []int, work1, work2 []float64, budget int) (shelf1 []bool, totalWork float64, err error) {
	n := len(cost1)
	if len(work1) != n || len(work2) != n {
		return nil, 0, fmt.Errorf("knapsack: inconsistent slice lengths %d/%d/%d", len(cost1), len(work1), len(work2))
	}
	if budget < 0 {
		return nil, 0, fmt.Errorf("knapsack: negative budget %d", budget)
	}
	const inf = math.MaxFloat64 / 4
	// dp[j] = minimal total work using at most j shelf-1 processors; next is
	// the row being filled, swapped in after every item.
	width := budget + 1
	dp := make([]float64, width)
	next := make([]float64, width)
	choice := make([]bool, n*width) // choice[i*width+j]: item i on shelf 1 when budget j
	for i := 0; i < n; i++ {
		c, w1, w2 := cost1[i], work1[i], work2[i]
		row := choice[i*width : (i+1)*width]
		shelf2 := !math.IsInf(w2, 1)
		for j := range next {
			bestVal := inf
			// Option shelf 2 (only when finite work2).
			if shelf2 {
				bestVal = dp[j] + w2
			}
			// Option shelf 1.
			if c <= j {
				if cand := dp[j-c] + w1; cand < bestVal {
					bestVal = cand
					row[j] = true
				}
			}
			next[j] = bestVal
		}
		dp, next = next, dp
	}
	if dp[budget] >= inf {
		return nil, 0, fmt.Errorf("knapsack: no feasible two-shelf partition within budget %d", budget)
	}
	shelf1 = make([]bool, n)
	j := budget
	for i := n - 1; i >= 0; i-- {
		shelf1[i] = choice[i*width+j]
		if shelf1[i] {
			j -= cost1[i]
		}
	}
	return shelf1, dp[budget], nil
}
