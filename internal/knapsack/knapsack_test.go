package knapsack

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMaxValueSimple(t *testing.T) {
	items := []Item{
		{Cost: 3, Value: 10},
		{Cost: 4, Value: 12},
		{Cost: 2, Value: 7},
		{Cost: 5, Value: 14},
	}
	res, err := MaxValue(items, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Best is items 1+0 (cost 7, value 22) or 3+2 (cost 7, value 21): 22.
	if res.TotalValue != 22 {
		t.Fatalf("TotalValue = %g, want 22", res.TotalValue)
	}
	if res.TotalCost > 7 {
		t.Fatalf("TotalCost = %d exceeds capacity", res.TotalCost)
	}
	sum := 0.0
	cost := 0
	for _, i := range res.Selected {
		sum += items[i].Value
		cost += items[i].Cost
	}
	if sum != res.TotalValue || cost != res.TotalCost {
		t.Fatalf("selection inconsistent with totals: %v", res)
	}
}

func TestMaxValueEdgeCases(t *testing.T) {
	res, err := MaxValue(nil, 5)
	if err != nil || res.TotalValue != 0 || len(res.Selected) != 0 {
		t.Fatalf("empty knapsack broken: %+v, %v", res, err)
	}
	res, err = MaxValue([]Item{{Cost: 10, Value: 5}}, 5)
	if err != nil || len(res.Selected) != 0 {
		t.Fatalf("oversized item should be skipped: %+v, %v", res, err)
	}
	if _, err := MaxValue([]Item{{Cost: 0, Value: 1}}, 5); err == nil {
		t.Fatalf("zero cost must be rejected")
	}
	if _, err := MaxValue([]Item{{Cost: 1, Value: math.NaN()}}, 5); err == nil {
		t.Fatalf("NaN value must be rejected")
	}
	if _, err := MaxValue([]Item{{Cost: 1, Value: -1}}, 5); err == nil {
		t.Fatalf("negative value must be rejected")
	}
	if _, err := MaxValue([]Item{{Cost: 1, Value: 1}}, -1); err == nil {
		t.Fatalf("negative capacity must be rejected")
	}
	// Zero capacity: nothing fits.
	res, err = MaxValue([]Item{{Cost: 1, Value: 3}}, 0)
	if err != nil || res.TotalValue != 0 {
		t.Fatalf("zero capacity should select nothing: %+v, %v", res, err)
	}
}

// bruteForce enumerates all subsets (n <= 16) for cross-checking.
func bruteForce(items []Item, capacity int) float64 {
	best := 0.0
	for mask := 0; mask < 1<<len(items); mask++ {
		cost, value := 0, 0.0
		for i, it := range items {
			if mask&(1<<i) != 0 {
				cost += it.Cost
				value += it.Value
			}
		}
		if cost <= capacity && value > best {
			best = value
		}
	}
	return best
}

func TestPropertyMaxValueMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		capacity := r.Intn(20)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Cost: 1 + r.Intn(8), Value: float64(r.Intn(50))}
		}
		res, err := MaxValue(items, capacity)
		if err != nil {
			return false
		}
		want := bruteForce(items, capacity)
		if math.Abs(res.TotalValue-want) > 1e-9 {
			return false
		}
		// Selection must be consistent and within capacity.
		cost, value := 0, 0.0
		for _, i := range res.Selected {
			cost += items[i].Cost
			value += items[i].Value
		}
		return cost <= capacity && math.Abs(value-res.TotalValue) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
