// Package moldable defines the moldable parallel-task model used throughout
// the library.
//
// A moldable task can be executed on any number of processors k between 1
// and m; the scheduler chooses k before execution and the allocation does
// not change until completion (Feitelson's classification, as used by the
// SPAA 2004 paper). A task is described by its weight (priority) and by the
// vector of its processing times p(1..m).
package moldable

import (
	"errors"
	"fmt"
	"math"
)

// Eps is the tolerance used for floating-point comparisons on times and
// work throughout the scheduling library.
const Eps = 1e-9

// Task is a single moldable job.
//
// Times[k-1] holds the processing time of the task when executed on k
// processors. The vector may be shorter than the machine size m; in that
// case the task cannot use more than len(Times) processors (for example a
// rigid or sequential job). All times must be strictly positive.
type Task struct {
	// ID identifies the task inside an Instance. IDs must be unique and
	// non-negative.
	ID int
	// Name is an optional human-readable label.
	Name string
	// Weight is the priority w_i used by the weighted minsum criterion.
	Weight float64
	// Times[k-1] is the processing time on k processors.
	Times []float64
}

// MaxProcs returns the largest processor count the task may be allotted.
func (t *Task) MaxProcs() int { return len(t.Times) }

// Time returns the processing time of the task on k processors.
// It panics if k is outside [1, MaxProcs()].
func (t *Task) Time(k int) float64 {
	if k < 1 || k > len(t.Times) {
		panic(fmt.Sprintf("moldable: task %d has no processing time for %d processors", t.ID, k))
	}
	return t.Times[k-1]
}

// Work returns the work (area) k*p(k) of the task on k processors.
func (t *Task) Work(k int) float64 { return float64(k) * t.Time(k) }

// SeqTime returns the sequential processing time p(1).
func (t *Task) SeqTime() float64 { return t.Time(1) }

// MinTime returns the smallest processing time over all allocations,
// together with the smallest allocation achieving it.
func (t *Task) MinTime() (float64, int) {
	best := math.Inf(1)
	bestK := 1
	for k := 1; k <= len(t.Times); k++ {
		if t.Times[k-1] < best-Eps {
			best = t.Times[k-1]
			bestK = k
		}
	}
	return best, bestK
}

// MinWork returns the smallest work over all allocations, together with the
// allocation achieving it. For monotonic tasks this is the sequential
// allocation.
func (t *Task) MinWork() (float64, int) {
	best := math.Inf(1)
	bestK := 1
	for k := 1; k <= len(t.Times); k++ {
		if w := t.Work(k); w < best-Eps {
			best = w
			bestK = k
		}
	}
	return best, bestK
}

// MinAllocFitting returns the smallest number of processors k such that the
// task completes within the deadline d, i.e. p(k) <= d (within Eps). The
// boolean is false when no allocation fits.
//
// For monotonic tasks the smallest fitting allocation is also the one with
// the least work among fitting allocations.
func (t *Task) MinAllocFitting(d float64) (int, bool) {
	for k := 1; k <= len(t.Times); k++ {
		if t.Times[k-1] <= d+Eps {
			return k, true
		}
	}
	return 0, false
}

// MinWorkFitting returns, among the allocations whose processing time fits
// within the deadline d, the one of minimal work. It returns the allocation,
// the corresponding work, and false when no allocation fits. Unlike
// MinAllocFitting it does not assume monotony.
func (t *Task) MinWorkFitting(d float64) (k int, work float64, ok bool) {
	work = math.Inf(1)
	for c := 1; c <= len(t.Times); c++ {
		if t.Times[c-1] <= d+Eps {
			if w := t.Work(c); w < work-Eps {
				work = w
				k = c
				ok = true
			}
		}
	}
	return k, work, ok
}

// Speedup returns the speedup p(1)/p(k) of the task on k processors.
func (t *Task) Speedup(k int) float64 { return t.SeqTime() / t.Time(k) }

// IsMonotonic reports whether the task follows the usual moldable-task
// monotony assumptions: processing times are non-increasing and work is
// non-decreasing with the number of processors.
func (t *Task) IsMonotonic() bool {
	for k := 2; k <= len(t.Times); k++ {
		if t.Times[k-1] > t.Times[k-2]+Eps {
			return false
		}
		if t.Work(k) < t.Work(k-1)-Eps {
			return false
		}
	}
	return true
}

// Validate checks the structural sanity of the task: a non-empty time
// vector, strictly positive times and a non-negative weight.
func (t *Task) Validate() error {
	if len(t.Times) == 0 {
		return fmt.Errorf("moldable: task %d has an empty processing-time vector", t.ID)
	}
	if t.Weight < 0 {
		return fmt.Errorf("moldable: task %d has negative weight %g", t.ID, t.Weight)
	}
	for k, p := range t.Times {
		if math.IsNaN(p) || math.IsInf(p, 0) || p <= 0 {
			return fmt.Errorf("moldable: task %d has invalid processing time p(%d)=%g", t.ID, k+1, p)
		}
	}
	return nil
}

// Clone returns a deep copy of the task.
func (t *Task) Clone() Task {
	cp := *t
	cp.Times = append([]float64(nil), t.Times...)
	return cp
}

// Sequential builds a task that can only run on a single processor.
func Sequential(id int, weight, duration float64) Task {
	return Task{ID: id, Weight: weight, Times: []float64{duration}}
}

// Rigid builds a task that must run on exactly procs processors: any smaller
// allocation is modelled with an untouchable, very large processing time so
// that schedulers never pick it, and larger allocations are not offered.
func Rigid(id int, weight float64, procs int, duration float64) Task {
	if procs < 1 {
		procs = 1
	}
	times := make([]float64, procs)
	for k := 0; k < procs-1; k++ {
		times[k] = duration * float64(procs) * 1e6
	}
	times[procs-1] = duration
	return Task{ID: id, Weight: weight, Times: times}
}

// PerfectlyMoldable builds a task with linear speedup up to maxProcs: the
// work seqTime is evenly divided among the allotted processors. Such tasks
// are the extreme case discussed in §3.1 of the paper (optimal minsum
// schedules run them on all processors by increasing area).
func PerfectlyMoldable(id int, weight, seqTime float64, maxProcs int) Task {
	times := make([]float64, maxProcs)
	for k := 1; k <= maxProcs; k++ {
		times[k-1] = seqTime / float64(k)
	}
	return Task{ID: id, Weight: weight, Times: times}
}

// ErrNoAllocation is returned when a task cannot fit in a given deadline on
// any allocation.
var ErrNoAllocation = errors.New("moldable: no allocation fits the deadline")
