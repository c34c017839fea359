package core

import (
	"fmt"
	"math"
)

// knapsack is the 0/1 knapsack dynamic program that selects the tasks of a
// batch: the subset of candidates of maximal total weight whose
// allocations fit on the m processors. It runs in O(n * capacity) time,
// the O(mn) of section 3.2 of the paper. Its value row, its flat
// n * (capacity+1) decision table and the selection it returns belong to
// the knapsack and are shared by the batches of one run, which size them
// for the largest possible batch up front (newBatchScratch): each solve
// zeroes the used prefix, and grows a table only when it is short.
type knapsack struct {
	best     []float64
	take     []bool
	selected []int
}

// maxValue chooses a subset of items with total allocation at most
// capacity maximizing the total weight, and returns the indices of the
// chosen items in increasing order and their total weight. Items larger
// than the capacity are never selected; an item with a non-positive
// allocation or an invalid weight is an error. The returned slice is the
// knapsack's, overwritten by the next solve.
func (k *knapsack) maxValue(items []batchItem, capacity int) ([]int, float64, error) {
	if capacity < 0 {
		return nil, 0, fmt.Errorf("core: negative knapsack capacity %d", capacity)
	}
	for i, it := range items {
		if it.alloc <= 0 {
			return nil, 0, fmt.Errorf("core: knapsack item %d has non-positive cost %d", i, it.alloc)
		}
		if math.IsNaN(it.weight) || math.IsInf(it.weight, 0) || it.weight < 0 {
			return nil, 0, fmt.Errorf("core: knapsack item %d has invalid value %g", i, it.weight)
		}
	}
	n := len(items)
	// best[j] = max weight achievable with capacity j over the items so
	// far; take[i*width+j] records whether item i is taken at capacity j.
	width := capacity + 1
	k.best, k.take = grow(k.best, width), grow(k.take, n*width)
	best, take := k.best, k.take
	clear(best)
	clear(take)
	for i, it := range items {
		if it.alloc > capacity {
			continue
		}
		row := take[i*width : (i+1)*width]
		for j := capacity; j >= it.alloc; j-- {
			if cand := best[j-it.alloc] + it.weight; cand > best[j]+1e-12 {
				best[j] = cand
				row[j] = true
			}
		}
	}
	// Reconstruct the selection from the last item backwards, then reverse
	// it to increasing index order.
	sel := k.selected[:0]
	j := capacity
	for i := n - 1; i >= 0; i-- {
		if take[i*width+j] {
			sel = append(sel, i)
			j -= items[i].alloc
		}
	}
	for a, b := 0, len(sel)-1; a < b; a, b = a+1, b-1 {
		sel[a], sel[b] = sel[b], sel[a]
	}
	k.selected = sel
	return sel, best[capacity], nil
}

// grow returns buf resliced to n entries, reallocated only when its
// capacity is short. The entries keep whatever the last use left there.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
