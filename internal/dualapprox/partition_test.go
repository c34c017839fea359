package dualapprox

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// partition runs minCostPartition on a fresh solver.
func partition(cost1 []int, work1, work2 []float64, budget int) ([]bool, float64, error) {
	return new(shelfSolver).minCostPartition(cost1, work1, work2, budget)
}

func TestMinCostPartitionSimple(t *testing.T) {
	// Two items; budget allows only one on shelf 1.
	cost1 := []int{2, 2}
	work1 := []float64{4, 6}
	work2 := []float64{10, 7}
	shelf1, total, err := partition(cost1, work1, work2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Putting item 0 on shelf 1 (work 4) and item 1 on shelf 2 (work 7) = 11
	// beats item 1 on shelf 1 (6) + item 0 on shelf 2 (10) = 16.
	if !shelf1[0] || shelf1[1] {
		t.Fatalf("partition = %v, want [true false]", shelf1)
	}
	if total != 11 {
		t.Fatalf("total work = %g, want 11", total)
	}
}

func TestMinCostPartitionForcedItems(t *testing.T) {
	inf := math.Inf(1)
	// Item 0 cannot go to shelf 2.
	shelf1, total, err := partition([]int{3, 1}, []float64{5, 2}, []float64{inf, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !shelf1[0] || shelf1[1] {
		t.Fatalf("partition = %v, want [true false]", shelf1)
	}
	if total != 6 {
		t.Fatalf("total = %g, want 6", total)
	}
	// Forced item exceeding the budget -> error.
	if _, _, err := partition([]int{5}, []float64{5}, []float64{inf}, 3); err == nil {
		t.Fatalf("infeasible forced item must fail")
	}
}

func TestMinCostPartitionErrors(t *testing.T) {
	if _, _, err := partition([]int{1}, []float64{1}, []float64{1, 2}, 3); err == nil {
		t.Fatalf("inconsistent lengths must fail")
	}
	if _, _, err := partition([]int{1}, []float64{1}, []float64{1}, -1); err == nil {
		t.Fatalf("negative budget must fail")
	}
}

func TestPropertyMinCostPartitionMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		budget := r.Intn(12)
		cost1 := make([]int, n)
		work1 := make([]float64, n)
		work2 := make([]float64, n)
		for i := 0; i < n; i++ {
			cost1[i] = 1 + r.Intn(5)
			work1[i] = 1 + 10*r.Float64()
			if r.Intn(4) == 0 {
				work2[i] = math.Inf(1)
			} else {
				work2[i] = 1 + 10*r.Float64()
			}
		}
		// Brute force.
		best := math.Inf(1)
		for mask := 0; mask < 1<<n; mask++ {
			cost, work := 0, 0.0
			ok := true
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					cost += cost1[i]
					work += work1[i]
				} else {
					if math.IsInf(work2[i], 1) {
						ok = false
						break
					}
					work += work2[i]
				}
			}
			if ok && cost <= budget && work < best {
				best = work
			}
		}
		shelf1, total, err := partition(cost1, work1, work2, budget)
		if math.IsInf(best, 1) {
			return err != nil
		}
		if err != nil {
			return false
		}
		// Verify reported selection and optimality.
		cost, work := 0, 0.0
		for i := 0; i < n; i++ {
			if shelf1[i] {
				cost += cost1[i]
				work += work1[i]
			} else {
				if math.IsInf(work2[i], 1) {
					return false
				}
				work += work2[i]
			}
		}
		return cost <= budget && math.Abs(work-total) < 1e-9 && math.Abs(total-best) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// randomPartitionProblem draws a partition problem with quarter-integer
// works, so that many partitions tie, some +Inf work2 (items forced onto
// shelf 1), costs up to 8 against budgets from 0 to well above the total
// cost, so that some items cost more than the whole budget and some
// problems never fill it.
func randomPartitionProblem(r *rand.Rand) (cost1 []int, work1, work2 []float64, budget int) {
	n := r.Intn(13)
	switch r.Intn(4) {
	case 0:
		budget = 0
	case 1:
		budget = 40 + r.Intn(80)
	default:
		budget = r.Intn(17)
	}
	cost1 = make([]int, n)
	work1 = make([]float64, n)
	work2 = make([]float64, n)
	for i := range cost1 {
		cost1[i] = 1 + r.Intn(8)
		work1[i] = float64(1+r.Intn(40)) / 4
		work2[i] = float64(1+r.Intn(40)) / 4
		if r.Intn(4) == 0 {
			work2[i] = math.Inf(1)
		}
	}
	return cost1, work1, work2, budget
}

// samePartition fails t unless two answers to one problem agree bit for
// bit: the partition, the total work, and the failure, to its text.
func samePartition(t *testing.T, what string, got []bool, gotWork float64, gotErr error, want []bool, wantWork float64, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: err %v, reference err %v", what, gotErr, wantErr)
	}
	if !slices.Equal(got, want) || math.Float64bits(gotWork) != math.Float64bits(wantWork) {
		t.Fatalf("%s: %v (work %v), reference %v (work %v)", what, got, gotWork, want, wantWork)
	}
}

// TestMinCostPartitionMatchesReference holds the prefix-bounded dynamic
// program to the full-width one it replaced (referenceMinCostPartition),
// on one solver reused from problem to problem as a bisection reuses it.
func TestMinCostPartitionMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	reused := new(shelfSolver)
	for p := 0; p < 3000; p++ {
		cost1, work1, work2, budget := randomPartitionProblem(r)
		want, wantWork, wantErr := referenceMinCostPartition(cost1, work1, work2, budget)
		got, gotWork, gotErr := reused.minCostPartition(cost1, work1, work2, budget)
		samePartition(t, fmt.Sprintf("problem %d (costs %v, budget %d)", p, cost1, budget), got, gotWork, gotErr, want, wantWork, wantErr)
	}
}

// FuzzPartitionReuse runs a seeded sequence of partition problems through
// one solver, whose tables carry over from problem to problem as they do
// across a bisection, and checks every result against a fresh solver's and
// against the full-width reference's, bit for bit: the partition, the total
// work, and the failure. A table left stale by an earlier, larger or
// costlier problem, or a row read past what was written, shows up as a
// different answer.
func FuzzPartitionReuse(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(12))
	}
	f.Fuzz(func(t *testing.T, seed int64, problems uint8) {
		r := rand.New(rand.NewSource(seed))
		reused := new(shelfSolver)
		for p := 0; p < int(problems%32); p++ {
			cost1, work1, work2, budget := randomPartitionProblem(r)
			what := fmt.Sprintf("problem %d (n=%d, budget=%d)", p, len(cost1), budget)
			want, wantWork, wantErr := referenceMinCostPartition(cost1, work1, work2, budget)
			got, gotWork, gotErr := reused.minCostPartition(cost1, work1, work2, budget)
			samePartition(t, what+", reused solver", got, gotWork, gotErr, want, wantWork, wantErr)
			got, gotWork, gotErr = partition(cost1, work1, work2, budget)
			samePartition(t, what+", fresh solver", got, gotWork, gotErr, want, wantWork, wantErr)
		}
	})
}
