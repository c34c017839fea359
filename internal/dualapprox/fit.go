package dualapprox

import (
	"math"

	"bicriteria/internal/moldable"
)

// fitTable answers the fit queries of one instance for the bisections of
// this package. It is built once per call in O(nm). A task qualifies for
// the fast path when its processing times never increase with the
// allocation and every work value k·p(k) stays at or above the running
// maximum of the earlier ones minus Eps. For such a task the fitting
// allocations form a suffix of Times, so the smallest one is found by
// binary search, and it is also the allocation Task.MinWorkFitting's scan
// keeps: no later work undercuts it by more than Eps. Every other task
// keeps the O(m) scan.
type fitTable struct {
	inst *moldable.Instance
	// sorted[i] reports whether task i qualifies for the binary search.
	sorted []bool
}

func newFitTable(inst *moldable.Instance) fitTable {
	ft := fitTable{inst: inst, sorted: make([]bool, len(inst.Tasks))}
	for i := range inst.Tasks {
		ft.sorted[i] = searchable(inst.Tasks[i].Times)
	}
	return ft
}

// searchable is the fit table's qualification test.
func searchable(times []float64) bool {
	maxWork := math.Inf(-1)
	for k, p := range times {
		if k > 0 && p > times[k-1] {
			return false
		}
		w := float64(k+1) * p
		if w < maxWork-moldable.Eps {
			return false
		}
		if w > maxWork {
			maxWork = w
		}
	}
	return true
}

// minAlloc is Task.MinAllocFitting(d) of task i.
func (ft fitTable) minAlloc(i int, d float64) (int, bool) {
	t := &ft.inst.Tasks[i]
	if !ft.sorted[i] {
		return t.MinAllocFitting(d)
	}
	limit := d + moldable.Eps
	lo, hi := 0, len(t.Times)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.Times[mid] <= limit {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == len(t.Times) {
		return 0, false
	}
	return lo + 1, true
}

// minWork is the work Task.MinWorkFitting(d) returns for task i.
func (ft fitTable) minWork(i int, d float64) (float64, bool) {
	if !ft.sorted[i] {
		_, w, ok := ft.inst.Tasks[i].MinWorkFitting(d)
		return w, ok
	}
	k, ok := ft.minAlloc(i, d)
	if !ok {
		return math.Inf(1), false
	}
	// The conversion rounds the product, as Task.Work's return does, so a
	// caller's sum can never fuse it into a multiply-add.
	return float64(ft.inst.Tasks[i].Work(k)), true
}

// allotment is the package-level allotment on a prebuilt table.
func (ft fitTable) allotment(deadline float64) []int {
	allot := make([]int, len(ft.sorted))
	for i := range allot {
		if k, ok := ft.minAlloc(i, deadline); ok {
			allot[i] = k
		} else {
			_, k := ft.inst.Tasks[i].MinTime()
			allot[i] = k
		}
	}
	return allot
}
