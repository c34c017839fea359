// Package schedule provides the representation of a schedule for moldable
// tasks on a homogeneous cluster, together with validation, the two criteria
// studied by the paper (makespan and weighted sum of completion times) and a
// textual Gantt-chart renderer.
package schedule

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"bicriteria/internal/moldable"
)

// Assignment is the placement decision for a single task: the allocation
// size chosen by the scheduler, the start time and the explicit set of
// processors the task runs on.
type Assignment struct {
	// TaskID refers to a task of the scheduled instance.
	TaskID int
	// Start is the start time of the task (>= 0, or >= its release date in
	// the on-line setting).
	Start float64
	// NProcs is the number of processors allotted to the task.
	NProcs int
	// Procs lists the processor indices (in [0, M)) executing the task.
	// When non-nil its length must equal NProcs. Schedulers in this library
	// always fill it so that per-processor validation is possible.
	Procs []int
	// Duration is the processing time of the task under this allocation; it
	// must equal task.Time(NProcs).
	Duration float64
}

// End returns the completion time of the assignment.
func (a Assignment) End() float64 { return a.Start + a.Duration }

// Schedule is a complete mapping of an instance's tasks onto the machine.
type Schedule struct {
	// M is the number of processors of the target machine.
	M int
	// Assignments holds exactly one entry per task of the instance.
	Assignments []Assignment
}

// Window is a set of processors that is down during [Start, End): a node
// reservation, or a crash and repair span of a fault plan. It is the
// exchange format between a fault plan, the reservation placer, the
// cluster engine and the simulator.
type Window struct {
	Procs []int
	Start float64
	End   float64
}

// New returns an empty schedule for an m-processor machine.
func New(m int) *Schedule { return &Schedule{M: m} }

// Add appends an assignment.
func (s *Schedule) Add(a Assignment) { s.Assignments = append(s.Assignments, a) }

// Assignment returns the assignment of the given task, or nil when the task
// is not scheduled.
func (s *Schedule) Assignment(taskID int) *Assignment {
	for i := range s.Assignments {
		if s.Assignments[i].TaskID == taskID {
			return &s.Assignments[i]
		}
	}
	return nil
}

// Makespan returns Cmax, the completion time of the last task (0 for an
// empty schedule).
func (s *Schedule) Makespan() float64 {
	cmax := 0.0
	for i := range s.Assignments {
		if e := s.Assignments[i].End(); e > cmax {
			cmax = e
		}
	}
	return cmax
}

// WeightedCompletion returns the weighted minsum criterion sum(w_i * C_i)
// for the instance the schedule was built for.
func (s *Schedule) WeightedCompletion(inst *moldable.Instance) float64 {
	idx := indexTasks(inst)
	total := 0.0
	for i := range s.Assignments {
		a := &s.Assignments[i]
		if pos := idx.find(a.TaskID); pos >= 0 {
			total += inst.Tasks[pos].Weight * a.End()
		}
	}
	return total
}

// sumCompletion returns the unweighted sum of completion times.
func (s *Schedule) sumCompletion() float64 {
	total := 0.0
	for i := range s.Assignments {
		total += s.Assignments[i].End()
	}
	return total
}

// taskIndex finds an instance's tasks by ID: every task's ID and position
// in inst.Tasks, sorted by ID, then position.
type taskIndex []taskPos

type taskPos struct{ id, pos int }

// indexTasks indexes the instance's tasks in O(n log n).
func indexTasks(inst *moldable.Instance) taskIndex {
	idx := make(taskIndex, len(inst.Tasks))
	for i := range inst.Tasks {
		idx[i] = taskPos{inst.Tasks[i].ID, i}
	}
	slices.SortFunc(idx, func(a, b taskPos) int {
		return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(a.pos, b.pos))
	})
	return idx
}

// find returns the position of the task with the given ID, the first of
// duplicated IDs as Instance.Task does, or -1 when absent.
func (idx taskIndex) find(id int) int {
	j, ok := slices.BinarySearchFunc(idx, id, func(e taskPos, id int) int { return cmp.Compare(e.id, id) })
	if !ok {
		return -1
	}
	return idx[j].pos
}

// totalWork returns the sum over assignments of NProcs * Duration.
func (s *Schedule) totalWork() float64 {
	total := 0.0
	for i := range s.Assignments {
		a := &s.Assignments[i]
		total += float64(a.NProcs) * a.Duration
	}
	return total
}

// utilization returns the fraction of the processor-time rectangle
// [0, Cmax] x M actually used by tasks. It is 0 for an empty schedule.
func (s *Schedule) utilization() float64 {
	cmax := s.Makespan()
	if cmax <= 0 || s.M == 0 {
		return 0
	}
	return s.totalWork() / (cmax * float64(s.M))
}

// idleTime returns the total processor idle time before the makespan.
func (s *Schedule) idleTime() float64 {
	return s.Makespan()*float64(s.M) - s.totalWork()
}

// Clone returns a deep copy of the schedule.
func (s *Schedule) Clone() *Schedule {
	cp := &Schedule{M: s.M, Assignments: make([]Assignment, len(s.Assignments))}
	for i, a := range s.Assignments {
		a.Procs = append([]int(nil), a.Procs...)
		cp.Assignments[i] = a
	}
	return cp
}

// ValidateOptions tunes schedule validation.
type ValidateOptions struct {
	// ReleaseDates optionally maps task IDs to release dates; when present
	// each task must not start before its release date.
	ReleaseDates map[int]float64
	// AllowMissingTasks skips the "every task is scheduled exactly once"
	// check (useful for validating partial schedules such as single
	// batches).
	AllowMissingTasks bool
}

// Validate checks that the schedule is feasible for the instance:
//
//   - every task of the instance is scheduled exactly once (unless
//     AllowMissingTasks is set) and no unknown task appears;
//   - allocation sizes are within [1, task.MaxProcs()] and durations match
//     the task's processing time for the chosen allocation;
//   - start times are non-negative (and respect release dates when given);
//   - explicit processor indices are in range, unique within a task, and no
//     processor executes two tasks at the same time;
//   - at every instant at most M processors are busy.
//
// For n tasks and A assignments listing P processors in all, it costs
// O((n + A)·log n) to find the tasks in an index built once, O(M + P) for
// one stamp and one bucket of spans per processor, and a sort of the 2A
// start/end events and of each processor's spans; it uses no maps.
func (s *Schedule) Validate(inst *moldable.Instance, opts *ValidateOptions) error {
	if opts == nil {
		opts = &ValidateOptions{}
	}
	if s.M != inst.M {
		return fmt.Errorf("schedule: machine size mismatch (schedule %d, instance %d)", s.M, inst.M)
	}
	idx := indexTasks(inst)
	// seen counts the assignments of each task, by its position in
	// inst.Tasks; stamp[p] is i+1 once assignment i has listed processor p.
	seen := make([]int, len(inst.Tasks))
	var stamp []int
	for i := range s.Assignments {
		a := &s.Assignments[i]
		pos := idx.find(a.TaskID)
		if pos < 0 {
			return fmt.Errorf("schedule: assignment %d references unknown task %d", i, a.TaskID)
		}
		t := &inst.Tasks[pos]
		seen[pos]++
		if seen[pos] > 1 {
			return fmt.Errorf("schedule: task %d scheduled more than once", a.TaskID)
		}
		if a.NProcs < 1 || a.NProcs > t.MaxProcs() {
			return fmt.Errorf("schedule: task %d allotted %d processors (valid range 1..%d)", a.TaskID, a.NProcs, t.MaxProcs())
		}
		if a.NProcs > s.M {
			return fmt.Errorf("schedule: task %d allotted %d processors but machine has %d", a.TaskID, a.NProcs, s.M)
		}
		want := t.Time(a.NProcs)
		if math.Abs(a.Duration-want) > 1e-6*(1+want) {
			return fmt.Errorf("schedule: task %d duration %g does not match p(%d)=%g", a.TaskID, a.Duration, a.NProcs, want)
		}
		if a.Start < -moldable.Eps {
			return fmt.Errorf("schedule: task %d starts at negative time %g", a.TaskID, a.Start)
		}
		if opts.ReleaseDates != nil {
			if r, ok := opts.ReleaseDates[a.TaskID]; ok && a.Start < r-1e-6 {
				return fmt.Errorf("schedule: task %d starts at %g before its release date %g", a.TaskID, a.Start, r)
			}
		}
		if a.Procs != nil {
			if len(a.Procs) != a.NProcs {
				return fmt.Errorf("schedule: task %d lists %d processors but NProcs=%d", a.TaskID, len(a.Procs), a.NProcs)
			}
			if stamp == nil {
				stamp = make([]int, s.M) // s.M >= NProcs >= 1 here
			}
			for _, p := range a.Procs {
				if p < 0 || p >= s.M {
					return fmt.Errorf("schedule: task %d uses processor %d outside [0,%d)", a.TaskID, p, s.M)
				}
				if stamp[p] == i+1 {
					return fmt.Errorf("schedule: task %d uses processor %d twice", a.TaskID, p)
				}
				stamp[p] = i + 1
			}
		}
	}
	if !opts.AllowMissingTasks {
		// The first unscheduled ID in instance order sits at the position
		// of its first task, where seen counts it.
		for i := range inst.Tasks {
			if seen[i] == 0 && idx.find(inst.Tasks[i].ID) == i {
				return fmt.Errorf("schedule: task %d is not scheduled", inst.Tasks[i].ID)
			}
		}
	}
	if err := s.checkCapacity(); err != nil {
		return err
	}
	if stamp == nil {
		return nil // no assignment lists its processors
	}
	return s.checkProcessorOverlaps()
}

// lessFirst is the three-way form of a < b for slices.SortFunc, which
// runs the same pdqsort as sort.Slice and only asks whether the result is
// negative: sorting with it leaves the exact order sort.Slice with a < b
// would, ties and NaNs included, without sort.Slice's allocations.
func lessFirst(a, b float64) int {
	switch {
	case a < b:
		return -1
	case b < a:
		return 1
	}
	return 0
}

// checkCapacity sweeps start/end events and verifies that the number of
// busy processors never exceeds M.
func (s *Schedule) checkCapacity() error {
	type event struct {
		t     float64
		delta int
	}
	events := make([]event, 0, 2*len(s.Assignments))
	for i := range s.Assignments {
		a := &s.Assignments[i]
		events = append(events, event{a.Start, a.NProcs}, event{a.End(), -a.NProcs})
	}
	slices.SortFunc(events, func(a, b event) int {
		if math.Abs(a.t-b.t) <= moldable.Eps {
			return cmp.Compare(a.delta, b.delta) // process releases first
		}
		return lessFirst(a.t, b.t)
	})
	busy := 0
	for _, e := range events {
		busy += e.delta
		if busy > s.M {
			return fmt.Errorf("schedule: %d processors busy at time %g but machine has only %d", busy, e.t, s.M)
		}
	}
	return nil
}

// checkProcessorOverlaps verifies, for assignments carrying explicit
// processor sets, that no processor runs two tasks simultaneously.
// Validate has checked every listed processor lies in [0, M), so the
// spans go in one slice bucketed by processor, each bucket in assignment
// order.
func (s *Schedule) checkProcessorOverlaps() error {
	type span struct {
		start, end float64
		task       int
	}
	// end[p] is first the end of processor p's bucket; filling the buckets
	// backwards leaves it at the bucket's start.
	end := make([]int, s.M+1)
	for i := range s.Assignments {
		for _, p := range s.Assignments[i].Procs {
			end[p]++
		}
	}
	total := 0
	for p := range end {
		total += end[p]
		end[p] = total
	}
	spans := make([]span, total)
	for i := len(s.Assignments) - 1; i >= 0; i-- {
		a := &s.Assignments[i]
		for _, p := range a.Procs {
			end[p]--
			spans[end[p]] = span{a.Start, a.End(), a.TaskID}
		}
	}
	// Check processors in ascending order so a schedule with several
	// overlaps always reports the same one.
	for p := 0; p < s.M; p++ {
		bucket := spans[end[p]:end[p+1]]
		slices.SortFunc(bucket, func(a, b span) int { return lessFirst(a.start, b.start) })
		for i := 1; i < len(bucket); i++ {
			if bucket[i].start < bucket[i-1].end-1e-6 {
				return fmt.Errorf("schedule: processor %d runs tasks %d and %d simultaneously (overlap at %g)",
					p, bucket[i-1].task, bucket[i].task, bucket[i].start)
			}
		}
	}
	return nil
}

// Metrics bundles the quantities reported by the experiment harness.
type Metrics struct {
	Makespan           float64
	WeightedCompletion float64
	SumCompletion      float64
	TotalWork          float64
	Utilization        float64
	IdleTime           float64
}

// ComputeMetrics evaluates the schedule against the instance.
func (s *Schedule) ComputeMetrics(inst *moldable.Instance) Metrics {
	return Metrics{
		Makespan:           s.Makespan(),
		WeightedCompletion: s.WeightedCompletion(inst),
		SumCompletion:      s.sumCompletion(),
		TotalWork:          s.totalWork(),
		Utilization:        s.utilization(),
		IdleTime:           s.idleTime(),
	}
}
