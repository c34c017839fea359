// Package online implements the on-line batch framework discussed in
// section 2.2 of the paper (after Shmoys, Wein and Williamson): jobs are
// submitted over time, an arriving job is deferred to the next batch, and
// each batch is scheduled with an off-line algorithm (DEMT or any baseline).
// If the off-line algorithm is a rho-approximation for the makespan, the
// resulting on-line algorithm is 2*rho-competitive.
package online

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"bicriteria/internal/moldable"
	"bicriteria/internal/schedule"
)

// Job is a moldable task together with its submission (release) date.
type Job struct {
	Task    moldable.Task
	Release float64
}

// CompareJobs orders jobs by release date, then task ID: the deterministic
// stream order in which the cluster engine admits and the grid router
// routes a stream.
func CompareJobs(a, b Job) int {
	return cmp.Or(cmp.Compare(a.Release, b.Release), cmp.Compare(a.Task.ID, b.Task.ID))
}

// SortedCopy returns the jobs in stream order (release date, then task ID),
// leaving the input untouched.
func SortedCopy(jobs []Job) []Job {
	sorted := slices.Clone(jobs)
	slices.SortFunc(sorted, CompareJobs)
	return sorted
}

// MergeFunc merges two slices already sorted by cmp, a's element first on
// ties. Neither input is written: the result is a new slice, or one of the
// inputs when the other is empty.
func MergeFunc[T any](a, b []T, cmp func(T, T) int) []T {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]T, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if cmp(b[0], a[0]) < 0 {
			out, b = append(out, b[0]), b[1:]
		} else {
			out, a = append(out, a[0]), a[1:]
		}
	}
	return append(append(out, a...), b...)
}

// Table records the jobs fed to a resumable replay, keyed by task ID, with
// one entry each. A fork of the table reads its parent's entries in place
// and keeps the jobs fed to the fork apart, so forking copies nothing; the
// price is that the parent must not be fed while a fork of it is in use.
type Table[V any] struct {
	own       map[int]V
	inherited []map[int]V
}

// NewTable returns an empty table.
func NewTable[V any]() Table[V] { return Table[V]{own: make(map[int]V)} }

// Get returns a recorded job's entry.
func (t Table[V]) Get(id int) (V, bool) {
	if v, ok := t.own[id]; ok {
		return v, true
	}
	for _, m := range t.inherited {
		if v, ok := m[id]; ok {
			return v, true
		}
	}
	var zero V
	return zero, false
}

// Fork returns a table holding t's jobs, to which later Enrolls of either
// side do not show through.
func (t Table[V]) Fork() Table[V] {
	return Table[V]{own: make(map[int]V), inherited: append(t.inherited[:len(t.inherited):len(t.inherited)], t.own)}
}

// Enroll validates jobs joining a resumable replay and records them with
// the entry fact computes. Each job must be a valid task released at or
// after both 0 and boundary, with an ID neither in the table nor repeated
// in the call. On the first bad job nothing is recorded, and the error,
// prefixed with who (e.g. "cluster"), names it.
func (t Table[V]) Enroll(who string, jobs []Job, boundary float64, fact func(*Job) V) error {
	for i := range jobs {
		j := &jobs[i]
		err := j.Task.Validate()
		switch {
		case err != nil:
		case j.Release < 0:
			err = fmt.Errorf("%s: job %d has negative release date", who, j.Task.ID)
		case !(j.Release >= boundary):
			err = fmt.Errorf("%s: job %d released at %g, before the replay's boundary %g", who, j.Task.ID, j.Release, boundary)
		default:
			if _, dup := t.Get(j.Task.ID); dup {
				err = fmt.Errorf("%s: duplicate job ID %d in the stream", who, j.Task.ID)
			}
		}
		if err != nil {
			for _, done := range jobs[:i] {
				delete(t.own, done.Task.ID)
			}
			return err
		}
		t.own[j.Task.ID] = fact(j)
	}
	return nil
}

// OfflineScheduler is any algorithm that schedules an off-line instance
// (all tasks available at time 0). The DEMT scheduler and every baseline of
// this library can be wrapped into this signature.
type OfflineScheduler func(inst *moldable.Instance) (*schedule.Schedule, error)

// BatchTrace describes one executed batch.
type BatchTrace struct {
	// Index is the batch number (0-based).
	Index int
	// Start is the time at which the batch begins executing.
	Start float64
	// Makespan is the length of the batch schedule.
	Makespan float64
	// TaskIDs lists the jobs scheduled in this batch.
	TaskIDs []int
}

// Result is the outcome of the on-line simulation.
type Result struct {
	// Schedule is the complete schedule (starts are absolute times).
	Schedule *schedule.Schedule
	// Batches describes every batch in execution order.
	Batches []BatchTrace
	// Makespan is the completion time of the last job.
	Makespan float64
	// MaxFlow is the maximum flow time (completion minus release) over jobs.
	MaxFlow float64
	// MeanStretch is the mean over jobs of the flow time divided by the
	// job's fastest possible execution time (its minimum processing time
	// over allocations): how much the batching slows a job down compared to
	// running alone on an empty machine.
	MeanStretch float64
	// WeightedCompletion is sum(w_i * C_i) with absolute completion times.
	WeightedCompletion float64
}

// Schedule runs the batch framework: at each step, all jobs released before
// the current time form the next batch; the batch is scheduled off-line and
// executed to completion before the following batch starts.
func Schedule(m int, jobs []Job, offline OfflineScheduler) (*Result, error) {
	if m < 1 {
		return nil, fmt.Errorf("online: machine needs at least one processor")
	}
	if offline == nil {
		return nil, fmt.Errorf("online: nil off-line scheduler")
	}
	if len(jobs) == 0 {
		return &Result{Schedule: schedule.New(m)}, nil
	}
	for i := range jobs {
		if err := jobs[i].Task.Validate(); err != nil {
			return nil, err
		}
		if jobs[i].Release < 0 {
			return nil, fmt.Errorf("online: job %d has negative release date", jobs[i].Task.ID)
		}
	}

	pending := make([]Job, len(jobs))
	copy(pending, jobs)
	sort.SliceStable(pending, func(a, b int) bool { return pending[a].Release < pending[b].Release })

	res := &Result{Schedule: schedule.New(m)}
	releases := ReleaseDates(jobs)
	tasks := make(map[int]*moldable.Task, len(jobs))
	for i := range jobs {
		tasks[jobs[i].Task.ID] = &jobs[i].Task
	}

	now := 0.0
	next := 0
	batchIndex := 0
	for next < len(pending) {
		if pending[next].Release > now {
			// Idle until the next submission.
			now = pending[next].Release
		}
		var batchTasks []moldable.Task
		for next < len(pending) && pending[next].Release <= now+moldable.Eps {
			batchTasks = append(batchTasks, pending[next].Task)
			next++
		}
		inst := moldable.NewInstance(m, batchTasks)
		sub, err := offline(inst)
		if err != nil {
			return nil, fmt.Errorf("online: batch %d: %w", batchIndex, err)
		}
		if err := sub.Validate(inst, nil); err != nil {
			return nil, fmt.Errorf("online: batch %d produced an invalid schedule: %w", batchIndex, err)
		}
		trace := BatchTrace{Index: batchIndex, Start: now, Makespan: sub.Makespan()}
		for _, a := range sub.Assignments {
			shifted := a
			shifted.Start += now
			shifted.Procs = append([]int(nil), a.Procs...)
			res.Schedule.Add(shifted)
			trace.TaskIDs = append(trace.TaskIDs, a.TaskID)
		}
		sort.Ints(trace.TaskIDs)
		res.Batches = append(res.Batches, trace)
		now += sub.Makespan()
		batchIndex++
	}

	res.Makespan = res.Schedule.Makespan()
	stretchSum, stretchCount := 0.0, 0
	for _, a := range res.Schedule.Assignments {
		t := tasks[a.TaskID]
		flow := a.End() - releases[a.TaskID]
		if flow > res.MaxFlow {
			res.MaxFlow = flow
		}
		res.WeightedCompletion += t.Weight * a.End()
		if pmin, _ := t.MinTime(); pmin > 0 {
			stretchSum += flow / pmin
			stretchCount++
		}
	}
	if stretchCount > 0 {
		res.MeanStretch = stretchSum / float64(stretchCount)
	}
	return res, nil
}

// ReleaseDates extracts the release-date map of a job list, for use with
// schedule validation.
func ReleaseDates(jobs []Job) map[int]float64 {
	out := make(map[int]float64, len(jobs))
	for _, j := range jobs {
		out[j.Task.ID] = j.Release
	}
	return out
}
