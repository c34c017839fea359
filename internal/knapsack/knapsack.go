// Package knapsack provides the 0/1 knapsack dynamic program used by the
// DEMT algorithm to select the tasks of each batch: maximize the total
// weight of the selected tasks under the m-processor budget. The
// dual-approximation's two-shelf partition, a min-cost variant, lives with
// its one caller in internal/dualapprox.
//
// The dynamic program runs in O(n * capacity) time. Each call allocates
// one flat n * (capacity+1) table of decisions for the reconstruction and
// one value row of capacity+1 entries.
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
