package moldable

import (
	"fmt"
	"math"
)

// Table holds what the schedulers ask of every task of one instance: is the
// instance valid, what are its fastest and least-work aggregates, and what
// is the smallest allocation meeting a deadline. NewTable builds it in one
// O(nm) walk over the times, so the dual approximation, its lower bound and
// every batch of DEMT read one table instead of scanning and validating the
// instance again. The instance must not change while the table is in use.
type Table struct {
	// Inst is the instance the table describes.
	Inst *Instance
	// Err is the error Inst.Validate returns: nil for a valid instance.
	// Every other field is filled either way, so the makespan lower bound
	// of an invalid instance keeps its value.
	Err error
	// TMin is the smallest MinTime over the tasks (+Inf without tasks),
	// the quantity DEMT sizes its first batch with. MaxMinTime is the
	// largest (0 without tasks): the longest task even when fully
	// parallelized. SumMinTime is their sum, the length of the schedule
	// that runs every task alone at its fastest. TotalMinWork is the sum
	// of the tasks' MinWork; divided by M it is the area lower bound. Each
	// is accumulated over the tasks in instance order.
	TMin, MaxMinTime, SumMinTime, TotalMinWork float64

	// searchable[i] reports whether MinAlloc and MinWork answer task i by
	// binary search (see NewTable).
	searchable []bool
}

// NewTable walks the instance once: it runs Instance.Validate's checks in
// the same order and with the same messages, and it records every task's
// MinTime and MinWork for the aggregates.
//
// In the same walk it marks the tasks whose fit queries take the fast
// path: the processing times never increase with the allocation and every
// work value k·p(k) is finite and stays at or above the running maximum of
// the earlier ones minus Eps. For such a task the allocations meeting a
// deadline form a suffix of Times, so the smallest one is found by binary
// search, and it is also the allocation Task.MinWorkFitting's scan keeps:
// no later work undercuts it by more than Eps. Every other task keeps the
// O(m) scan.
func NewTable(inst *Instance) *Table {
	tb := &Table{Inst: inst, TMin: math.Inf(1), searchable: make([]bool, len(inst.Tasks))}
	if inst.M < 1 {
		tb.Err = fmt.Errorf("moldable: instance needs at least one processor, got %d", inst.M)
	} else if len(inst.Tasks) == 0 {
		tb.Err = fmt.Errorf("moldable: instance has no tasks")
	}
	seen := make(map[int]bool, len(inst.Tasks))
	for i := range inst.Tasks {
		t := &inst.Tasks[i]
		minTime, minWork, badTime, ok := walkTimes(t.Times)
		tb.searchable[i] = ok
		if minTime < tb.TMin {
			tb.TMin = minTime
		}
		if minTime > tb.MaxMinTime {
			tb.MaxMinTime = minTime
		}
		tb.SumMinTime += minTime
		tb.TotalMinWork += minWork

		if tb.Err != nil {
			continue
		}
		switch {
		case len(t.Times) == 0:
			tb.Err = fmt.Errorf("moldable: task %d has an empty processing-time vector", t.ID)
		case math.IsNaN(t.Weight) || math.IsInf(t.Weight, 0) || t.Weight < 0:
			tb.Err = fmt.Errorf("moldable: task %d has invalid weight %g", t.ID, t.Weight)
		case badTime >= 0:
			tb.Err = fmt.Errorf("moldable: task %d has invalid processing time p(%d)=%g", t.ID, badTime+1, t.Times[badTime])
		case seen[t.ID]:
			tb.Err = fmt.Errorf("moldable: duplicate task ID %d", t.ID)
		case len(t.Times) > inst.M:
			tb.Err = fmt.Errorf("moldable: task %d offers %d allocations but the machine has only %d processors", t.ID, len(t.Times), inst.M)
		}
		seen[t.ID] = true
	}
	return tb
}

// walkTimes returns, for one time vector, what Task.MinTime and
// Task.MinWork return as the time and the work, the index of the first
// time Task.Validate refuses (-1 when none) and whether the vector takes
// the fit queries' binary search.
func walkTimes(times []float64) (minTime, minWork float64, badTime int, searchable bool) {
	minTime, minWork, badTime, searchable = math.Inf(1), math.Inf(1), -1, true
	prev, maxWork := math.Inf(1), math.Inf(-1)
	for k, p := range times {
		// Task.Validate's test, NaN included: p must be positive and finite.
		if !(p > 0 && p <= math.MaxFloat64) && badTime < 0 {
			badTime = k
		}
		if p < minTime-Eps {
			minTime = p
		}
		// The conversion rounds the product, as Task.Work's return does.
		w := float64(float64(k+1) * p)
		if w < minWork-Eps {
			minWork = w
		}
		if searchable {
			// A NaN time makes w NaN and an overflowing product makes it
			// +Inf; either fails the work test, so the task keeps the scan,
			// whose comparisons treat them differently.
			if p > prev || !(w >= maxWork-Eps && w <= math.MaxFloat64) {
				searchable = false
			}
			prev = p
			if w > maxWork {
				maxWork = w
			}
		}
	}
	return minTime, minWork, badTime, searchable
}

// MinAlloc is Task.minAllocFitting(d) of task i.
func (tb *Table) MinAlloc(i int, d float64) (int, bool) {
	t := &tb.Inst.Tasks[i]
	if !tb.searchable[i] {
		return t.minAllocFitting(d)
	}
	limit := d + Eps
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

// MinWork is the work Task.MinWorkFitting(d) returns for task i, and
// whether some allocation fits.
func (tb *Table) MinWork(i int, d float64) (float64, bool) {
	if !tb.searchable[i] {
		_, w, ok := tb.Inst.Tasks[i].MinWorkFitting(d)
		return w, ok
	}
	k, ok := tb.MinAlloc(i, d)
	if !ok {
		return math.Inf(1), false
	}
	// The conversion rounds the product, as Task.Work's return does, so a
	// caller's sum can never fuse it into a multiply-add.
	return float64(tb.Inst.Tasks[i].Work(k)), true
}
