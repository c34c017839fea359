// Package sim is a small discrete-event simulator of a homogeneous cluster
// executing a schedule produced by this library. It replaces the Icluster2
// hardware of the paper's deployment section: it dispatches tasks in
// planned order on their planned processors, optionally perturbing the
// actual execution times (user estimates are rarely exact), and reports the
// realized metrics so the robustness of a scheduler can be studied.
package sim

import (
	"fmt"
	"math"
	"sort"

	"bicriteria/internal/moldable"
	"bicriteria/internal/schedule"
)

// Options tunes the simulation.
type Options struct {
	// Perturb maps a task's planned duration to its actual duration (for
	// example multiplying by a random factor). Nil means exact execution.
	Perturb func(taskID int, planned float64) float64
	// Strict makes the simulation fail if a task cannot start exactly at
	// its planned time because one of its processors is still busy. The
	// default (false) delays the task until its processors are free, as a
	// real runtime system would.
	Strict bool
	// Blocked lists processor windows that are unavailable during the run
	// (node reservations, maintenance). A task whose realized execution
	// would overlap a blocked window on one of its processors is delayed
	// past the window, exactly as the runtime system of the paper's
	// deployment would hold a job for an advance reservation.
	Blocked []schedule.Window
	// Failures lists machine down windows the planner did NOT know about:
	// node crashes. Unlike Blocked windows, which delay tasks out of the
	// way, a failure beginning while a task is running kills the task at
	// the failure instant — it appears in Result.Killed instead of
	// completing, and its partial work still counts as busy time (the
	// cycles were spent). A task dispatched while one of its processors is
	// already down is delayed past the repair, like a real runtime system
	// that cannot place work on a dead node. Note the gang-dispatch
	// consequence: a wide task waits for an instant when every one of its
	// processors is up at once, so under very dense failures a
	// whole-machine task can starve (delayed past the last repair) rather
	// than start and be killed.
	Failures []schedule.Window
}

// KilledTask records one task killed by a failure: it started at Start and
// died at KilledAt, before completing the realized Duration it would have
// run (so (KilledAt-Start)/Duration is the fraction of work finished).
type KilledTask struct {
	TaskID   int
	Start    float64
	KilledAt float64
	Duration float64
	Procs    []int
}

// TaskTrace records the realized execution of one task.
type TaskTrace struct {
	TaskID  int
	Start   float64
	End     float64
	Procs   []int
	Delayed bool // true when the task could not start at its planned time
}

// Result is the outcome of a simulation.
type Result struct {
	// Traces holds one entry per task, sorted by realized start time.
	Traces []TaskTrace
	// Makespan is the realized completion time of the last task.
	Makespan float64
	// WeightedCompletion is the realized sum(w_i * C_i).
	WeightedCompletion float64
	// SumCompletion is the realized sum of completion times.
	SumCompletion float64
	// BusyTime is, per processor, the total time spent executing tasks,
	// including the partial (wasted) work of killed tasks.
	BusyTime []float64
	// Delayed is the number of tasks that started later than planned.
	Delayed int
	// Killed lists the tasks killed by failure windows, in dispatch order.
	// Killed tasks do not appear in Traces and contribute nothing to the
	// completion metrics; the caller decides how to reschedule them.
	Killed []KilledTask
}

// Execute runs the schedule on a simulated cluster.
func Execute(inst *moldable.Instance, sched *schedule.Schedule, opts *Options) (*Result, error) {
	if opts == nil {
		opts = &Options{}
	}
	if sched.M != inst.M {
		return nil, fmt.Errorf("sim: schedule is for %d processors, instance for %d", sched.M, inst.M)
	}
	for i := range sched.Assignments {
		a := &sched.Assignments[i]
		if inst.Task(a.TaskID) == nil {
			return nil, fmt.Errorf("sim: schedule references unknown task %d", a.TaskID)
		}
		if len(a.Procs) != a.NProcs {
			return nil, fmt.Errorf("sim: task %d has no explicit processor assignment", a.TaskID)
		}
	}

	// Dispatch in planned start order (ties broken by task ID for
	// determinism).
	order := make([]int, len(sched.Assignments))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		ax, ay := &sched.Assignments[order[x]], &sched.Assignments[order[y]]
		if ax.Start != ay.Start {
			return ax.Start < ay.Start
		}
		return ax.TaskID < ay.TaskID
	})

	blocked, err := byProc(opts.Blocked, inst.M, "blocked")
	if err != nil {
		return nil, err
	}
	failures, err := byProc(opts.Failures, inst.M, "failure")
	if err != nil {
		return nil, err
	}

	res := &Result{BusyTime: make([]float64, inst.M)}
	freeAt := make([]float64, inst.M)
	for _, i := range order {
		a := &sched.Assignments[i]
		start := a.Start
		for _, p := range a.Procs {
			if p < 0 || p >= inst.M {
				return nil, fmt.Errorf("sim: task %d uses processor %d outside the machine", a.TaskID, p)
			}
			if freeAt[p] > start {
				start = freeAt[p]
			}
		}
		duration := a.Duration
		if opts.Perturb != nil {
			duration = opts.Perturb(a.TaskID, a.Duration)
			if duration <= 0 || math.IsNaN(duration) || math.IsInf(duration, 0) {
				return nil, fmt.Errorf("sim: perturbation produced an invalid duration %g for task %d", duration, a.TaskID)
			}
		}
		busyUntil := start
		// Blocked windows are known in advance (the whole planned span must
		// clear them); failures only reveal themselves at dispatch (a dead
		// node cannot accept work, but a future crash is invisible).
		// Pushing past one kind can land inside the other, so alternate to
		// a fixpoint.
		for changed := true; changed; {
			changed = false
			if s := delayPastBlocked(blocked, a.Procs, start, duration); s > start {
				start = s
				changed = true
			}
			if s := delayPastDown(failures, a.Procs, start); s > start {
				start = s
				changed = true
			}
		}
		delayed := start > a.Start+moldable.Eps
		if delayed && opts.Strict {
			if start > busyUntil {
				return nil, fmt.Errorf("sim: task %d cannot start at its planned time %g (processors blocked until %g)", a.TaskID, a.Start, start)
			}
			return nil, fmt.Errorf("sim: task %d cannot start at its planned time %g (processors busy until %g)", a.TaskID, a.Start, start)
		}
		end := start + duration
		if killAt, killed := firstFailureDuring(failures, a.Procs, start, end); killed {
			// The crash kills the task mid-run: the partial work is spent
			// (busy time), nothing completes, and the caller reschedules.
			for _, p := range a.Procs {
				freeAt[p] = killAt
				res.BusyTime[p] += killAt - start
			}
			if delayed {
				res.Delayed++
			}
			res.Killed = append(res.Killed, KilledTask{
				TaskID:   a.TaskID,
				Start:    start,
				KilledAt: killAt,
				Duration: duration,
				Procs:    append([]int(nil), a.Procs...),
			})
			continue
		}
		for _, p := range a.Procs {
			freeAt[p] = end
			res.BusyTime[p] += duration
		}
		if delayed {
			res.Delayed++
		}
		res.Traces = append(res.Traces, TaskTrace{
			TaskID:  a.TaskID,
			Start:   start,
			End:     end,
			Procs:   append([]int(nil), a.Procs...),
			Delayed: delayed,
		})
		if end > res.Makespan {
			res.Makespan = end
		}
		t := inst.Task(a.TaskID)
		res.WeightedCompletion += t.Weight * end
		res.SumCompletion += end
	}
	sort.SliceStable(res.Traces, func(a, b int) bool { return res.Traces[a].Start < res.Traces[b].Start })
	return res, nil
}

// byProc indexes the windows by processor, sorted by start; kind names
// them in errors.
func byProc(windows []schedule.Window, m int, kind string) (map[int][]schedule.Window, error) {
	if len(windows) == 0 {
		return nil, nil
	}
	perProc := make(map[int][]schedule.Window)
	for _, w := range windows {
		if w.End <= w.Start {
			return nil, fmt.Errorf("sim: %s window has empty or negative span [%g, %g)", kind, w.Start, w.End)
		}
		for _, p := range w.Procs {
			if p < 0 || p >= m {
				return nil, fmt.Errorf("sim: %s window uses processor %d outside the machine", kind, p)
			}
			perProc[p] = append(perProc[p], w)
		}
	}
	for p := range perProc {
		sort.SliceStable(perProc[p], func(a, b int) bool { return perProc[p][a].Start < perProc[p][b].Start })
	}
	return perProc, nil
}

// delayPastBlocked pushes the start time until [start, start+duration) is
// clear of every blocked window on every processor of the task. Pushing past
// one window can land inside another, so the sweep repeats until stable.
func delayPastBlocked(blocked map[int][]schedule.Window, procs []int, start, duration float64) float64 {
	if len(blocked) == 0 {
		return start
	}
	for changed := true; changed; {
		changed = false
		for _, p := range procs {
			for _, w := range blocked[p] {
				if start < w.End-moldable.Eps && start+duration > w.Start+moldable.Eps {
					start = w.End
					changed = true
				}
			}
		}
	}
	return start
}

// delayPastDown pushes the start time past every failure window that is
// active at the start instant on one of the task's processors: the runtime
// cannot dispatch onto a dead node, but it does not know about crashes
// that have not happened yet. Pushing past one window can land inside
// another, so the sweep repeats until stable.
func delayPastDown(failures map[int][]schedule.Window, procs []int, start float64) float64 {
	if len(failures) == 0 {
		return start
	}
	for changed := true; changed; {
		changed = false
		for _, p := range procs {
			for _, w := range failures[p] {
				if start >= w.Start-moldable.Eps && start < w.End-moldable.Eps {
					start = w.End
					changed = true
				}
			}
		}
	}
	return start
}

// firstFailureDuring returns the earliest failure that begins strictly
// inside the task's execution (start, end) on one of its processors — the
// instant the task dies — or false when the task runs to completion.
func firstFailureDuring(failures map[int][]schedule.Window, procs []int, start, end float64) (float64, bool) {
	if len(failures) == 0 {
		return 0, false
	}
	earliest := math.Inf(1)
	for _, p := range procs {
		for _, w := range failures[p] {
			if w.Start > start+moldable.Eps && w.Start < end-moldable.Eps && w.Start < earliest {
				earliest = w.Start
			}
		}
	}
	if math.IsInf(earliest, 1) {
		return 0, false
	}
	return earliest, true
}

// Utilization returns the average fraction of the machine kept busy until
// the realized makespan.
func (r *Result) Utilization(m int) float64 {
	if r.Makespan <= 0 || m == 0 {
		return 0
	}
	busy := 0.0
	for _, b := range r.BusyTime {
		busy += b
	}
	return busy / (r.Makespan * float64(m))
}
