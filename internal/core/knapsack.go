package core

import (
	"fmt"
	"math"
)

// knapsack is the 0/1 knapsack dynamic program that selects the tasks of a
// batch: the subset of candidates of maximal total weight whose
// allocations fit on the m processors. It runs in O(n * capacity) time at
// worst, the O(mn) of section 3.2 of the paper, and fills the row of item i
// only up to min(capacity, S_i), where S_i is the total allocation of the
// items 0..i that fit the capacity: by induction from the all-zero row
// before item 0, an entry j >= S_i is computed from the same operands as
// entry S_i, so it holds the same bits and makes the same choice, and it is
// read as entry min(j, S_i). Its value row, its flat n * (capacity+1)
// decision table and the selection it returns belong to the knapsack and
// are shared by the batches of one run, which size them for the largest
// possible batch up front (newBatchScratch): every entry a solve reads it
// writes first, and a table grows only when it is short.
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
	// far, held on [0, top] with top = min(capacity, S); take[i*width+j]
	// records whether item i is taken at capacity j.
	width := capacity + 1
	k.best, k.take = grow(k.best, width), grow(k.take, n*width)
	best, take := k.best, k.take
	best[0] = 0
	top, sum := 0, 0
	for i, it := range items {
		if it.alloc > capacity {
			continue
		}
		sum += it.alloc
		row := take[i*width : i*width+min(capacity, sum)+1]
		// best past top reads as best[top]: write it out to the row's end.
		for j := top + 1; j < len(row); j++ {
			best[j] = best[top]
		}
		// Entry j >= alloc reads best[j-alloc], not yet overwritten while j
		// falls; resliced to one length, the loop checks no bounds.
		from := best[:len(row)-it.alloc]
		to, took := best[it.alloc:][:len(from)], row[it.alloc:][:len(from)]
		for j := len(from) - 1; j >= 0; j-- {
			cand, cur := from[j]+it.weight, to[j]
			better := cand > cur+1e-12
			if better {
				cur = cand
			}
			to[j], took[j] = cur, better
		}
		clear(row[:it.alloc])
		top = len(row) - 1
	}
	// Reconstruct the selection from the last item backwards, reading row i
	// at min(j, S_i), then reverse it to increasing index order.
	sel := k.selected[:0]
	j := capacity
	for i := n - 1; i >= 0; i-- {
		it := items[i]
		if it.alloc > capacity {
			continue
		}
		if take[i*width+min(j, sum)] {
			sel = append(sel, i)
			j -= it.alloc
		}
		sum -= it.alloc
	}
	for a, b := 0, len(sel)-1; a < b; a, b = a+1, b-1 {
		sel[a], sel[b] = sel[b], sel[a]
	}
	k.selected = sel
	return sel, best[top], nil
}

// grow returns buf resliced to n entries, reallocated only when its
// capacity is short. The entries keep whatever the last use left there.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
