package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// costs returns the total allocation and weight of the selected items.
func costs(items []batchItem, selected []int) (int, float64) {
	cost, value := 0, 0.0
	for _, i := range selected {
		cost += items[i].alloc
		value += items[i].weight
	}
	return cost, value
}

func TestMaxValueSimple(t *testing.T) {
	items := []batchItem{
		{alloc: 3, weight: 10},
		{alloc: 4, weight: 12},
		{alloc: 2, weight: 7},
		{alloc: 5, weight: 14},
	}
	selected, total, err := new(knapsack).maxValue(items, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Best is items 1+0 (cost 7, value 22) or 3+2 (cost 7, value 21): 22.
	if total != 22 {
		t.Fatalf("total value = %g, want 22", total)
	}
	if cost, value := costs(items, selected); cost > 7 || value != total {
		t.Fatalf("selection %v costs %d and weighs %g, want at most 7 and %g", selected, cost, value, total)
	}
}

func TestMaxValueEdgeCases(t *testing.T) {
	var k knapsack
	selected, total, err := k.maxValue(nil, 5)
	if err != nil || total != 0 || len(selected) != 0 {
		t.Fatalf("empty knapsack broken: %v, %g, %v", selected, total, err)
	}
	selected, _, err = k.maxValue([]batchItem{{alloc: 10, weight: 5}}, 5)
	if err != nil || len(selected) != 0 {
		t.Fatalf("oversized item should be skipped: %v, %v", selected, err)
	}
	if _, _, err := k.maxValue([]batchItem{{alloc: 0, weight: 1}}, 5); err == nil {
		t.Fatalf("zero cost must be rejected")
	}
	if _, _, err := k.maxValue([]batchItem{{alloc: 1, weight: math.NaN()}}, 5); err == nil {
		t.Fatalf("NaN value must be rejected")
	}
	if _, _, err := k.maxValue([]batchItem{{alloc: 1, weight: -1}}, 5); err == nil {
		t.Fatalf("negative value must be rejected")
	}
	if _, _, err := k.maxValue([]batchItem{{alloc: 1, weight: 1}}, -1); err == nil {
		t.Fatalf("negative capacity must be rejected")
	}
	// Zero capacity: nothing fits.
	selected, total, err = k.maxValue([]batchItem{{alloc: 1, weight: 3}}, 0)
	if err != nil || total != 0 || len(selected) != 0 {
		t.Fatalf("zero capacity should select nothing: %v, %g, %v", selected, total, err)
	}
}

// bruteForce enumerates all subsets (n <= 16) for cross-checking.
func bruteForce(items []batchItem, capacity int) float64 {
	best := 0.0
	for mask := 0; mask < 1<<len(items); mask++ {
		cost, value := 0, 0.0
		for i, it := range items {
			if mask&(1<<i) != 0 {
				cost += it.alloc
				value += it.weight
			}
		}
		if cost <= capacity && value > best {
			best = value
		}
	}
	return best
}

// TestPropertyMaxValueMatchesBruteForce solves every random problem on
// one reused knapsack, as the batches of a run do, so a decision left in
// the table by a larger earlier problem would show.
func TestPropertyMaxValueMatchesBruteForce(t *testing.T) {
	var k knapsack
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		capacity := r.Intn(20)
		items := make([]batchItem, n)
		for i := range items {
			items[i] = batchItem{alloc: 1 + r.Intn(8), weight: float64(r.Intn(50))}
		}
		selected, total, err := k.maxValue(items, capacity)
		if err != nil {
			return false
		}
		if math.Abs(total-bruteForce(items, capacity)) > 1e-9 {
			return false
		}
		// Selection must be consistent, increasing and within capacity.
		for a := 1; a < len(selected); a++ {
			if selected[a] <= selected[a-1] {
				return false
			}
		}
		cost, value := costs(items, selected)
		return cost <= capacity && math.Abs(value-total) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// referenceMaxValue is maxValue as it stood before its rows stopped at
// their running allocation sum: every item that fits updates the whole
// row, in fresh tables.
func referenceMaxValue(items []batchItem, capacity int) ([]int, float64, error) {
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
	width := capacity + 1
	best, take := make([]float64, width), make([]bool, n*width)
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
	var sel []int
	j := capacity
	for i := n - 1; i >= 0; i-- {
		if take[i*width+j] {
			sel = append(sel, i)
			j -= items[i].alloc
		}
	}
	slices.Reverse(sel)
	return sel, best[capacity], nil
}

// randomKnapsackProblem draws a batch knapsack with quarter-integer
// weights, so that many selections tie, allocations up to 12 against
// capacities from 0 to well above the total allocation, so that some items
// fit no capacity and some problems never fill it, and now and then an
// invalid item.
func randomKnapsackProblem(r *rand.Rand) ([]batchItem, int) {
	n := r.Intn(14)
	capacity := r.Intn(20)
	switch r.Intn(5) {
	case 0:
		capacity = 0
	case 1:
		capacity = 60 + r.Intn(100)
	}
	items := make([]batchItem, n)
	for i := range items {
		items[i] = batchItem{alloc: 1 + r.Intn(12), weight: float64(r.Intn(40)) / 4}
	}
	if n > 0 && r.Intn(40) == 0 {
		items[r.Intn(n)].alloc = 0
	}
	if r.Intn(60) == 0 {
		capacity = -1
	}
	return items, capacity
}

// TestMaxValueMatchesReference holds the prefix-bounded knapsack to the
// full-width one it replaced (referenceMaxValue), bit for bit: the same
// selection, the same total and the same failure, on one knapsack reused
// from problem to problem as the batches of a run reuse it.
func TestMaxValueMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var k knapsack
	for p := 0; p < 3000; p++ {
		items, capacity := randomKnapsackProblem(r)
		want, wantTotal, wantErr := referenceMaxValue(items, capacity)
		got, total, err := k.maxValue(items, capacity)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("problem %d (%v, capacity %d): err %v, reference err %v", p, items, capacity, err, wantErr)
		}
		if !slices.Equal(got, want) || math.Float64bits(total) != math.Float64bits(wantTotal) {
			t.Fatalf("problem %d (%v, capacity %d): %v (total %v), reference %v (total %v)", p, items, capacity, got, total, want, wantTotal)
		}
	}
}
