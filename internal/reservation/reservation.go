// Package reservation implements the first of the paper's "on-going works"
// (section 5): scheduling the moldable jobs around node reservations that
// temporarily reduce the usable size of the cluster (administrative
// maintenance windows, advance reservations for other users, ...).
//
// The approach keeps the structure of the DEMT algorithm: the batch
// construction and the knapsack selection are run on the full machine to
// decide allotments and priorities, and the compaction step then places the
// tasks with the hole-filling insertion scheduler on the machine with the
// reserved intervals blocked out. Reservations are returned alongside the
// schedule so that the result can be validated and displayed as a whole.
package reservation

import (
	"context"
	"fmt"
	"sort"

	"bicriteria/internal/core"
	"bicriteria/internal/listsched"
	"bicriteria/internal/moldable"
	"bicriteria/internal/schedule"
)

// Reservation blocks a number of processors during a time window. Concrete
// processor indices are chosen by AssignProcs.
type Reservation struct {
	// Name is an optional label (shown by String()).
	Name string
	// Procs is the number of processors reserved.
	Procs int
	// Start and End delimit the reserved window.
	Start, End float64
}

// String describes the reservation.
func (r Reservation) String() string {
	name := r.Name
	if name == "" {
		name = "reservation"
	}
	return fmt.Sprintf("%s: %d processors during [%g, %g)", name, r.Procs, r.Start, r.End)
}

// Validate checks a reservation against the machine size.
func (r Reservation) Validate(m int) error {
	if r.Procs < 1 || r.Procs > m {
		return fmt.Errorf("reservation: %d processors requested on a %d-processor machine", r.Procs, m)
	}
	if r.End <= r.Start {
		return fmt.Errorf("reservation: empty or negative window [%g, %g)", r.Start, r.End)
	}
	if r.Start < 0 {
		return fmt.Errorf("reservation: negative start %g", r.Start)
	}
	return nil
}

// Options tunes the reservation-aware scheduler.
type Options struct {
	// DEMT carries the options of the underlying batch construction.
	DEMT *core.Options
}

// Result is the outcome of the reservation-aware scheduling.
type Result struct {
	// Schedule contains the job assignments only (not the reservations).
	Schedule *schedule.Schedule
	// Blocked lists, for every reservation (in input order), the concrete
	// processors that were blocked.
	Blocked [][]int
	// DEMT is the result of the batch construction on the unreserved
	// machine (allotments, batches, estimates).
	DEMT *core.Result
}

// Schedule plans the instance around the reservations. The returned
// schedule never uses a reserved processor during its reserved window. The
// context is passed to the DEMT run (core.ScheduleTable, which reads the
// instance's table built here).
func Schedule(ctx context.Context, inst *moldable.Instance, reservations []Reservation, opts *Options) (*Result, error) {
	tab := moldable.NewTable(inst)
	if tab.Err != nil {
		return nil, tab.Err
	}
	for _, r := range reservations {
		if err := r.Validate(inst.M); err != nil {
			return nil, err
		}
	}
	blocked, err := AssignProcs(inst.M, reservations)
	if err != nil {
		return nil, err
	}

	var demtOpts *core.Options
	if opts != nil {
		demtOpts = opts.DEMT
	}
	demtRes, err := core.ScheduleTable(ctx, tab, demtOpts)
	if err != nil {
		return nil, err
	}

	busy := make([]schedule.Window, len(reservations))
	for i, r := range reservations {
		busy[i] = schedule.Window{Procs: blocked[i], Start: r.Start, End: r.End}
	}

	// Re-place the DEMT schedule around the reservations: keep the batch
	// priority order (start time, then longest first) and the allotments,
	// and let the insertion scheduler fill the holes left by the blocked
	// windows.
	items := PriorityItems(demtRes.Schedule)
	placed, err := listsched.InsertionWithReservations(inst.M, busy, items)
	if err != nil {
		return nil, err
	}
	return &Result{Schedule: placed, Blocked: blocked, DEMT: demtRes}, nil
}

// AssignProcs picks concrete processors for every reservation on an
// m-processor machine, highest indices first (so job packing keeps using
// the low indices), while keeping temporally overlapping reservations on
// disjoint processors. It fails when the reservations leave no processor
// free at their peak: the jobs in flight then could never be placed.
func AssignProcs(m int, reservations []Reservation) ([][]int, error) {
	blocked := make([][]int, len(reservations))
	for i, r := range reservations {
		taken := make(map[int]bool)
		for j := 0; j < i; j++ {
			o := reservations[j]
			if r.Start < o.End-moldable.Eps && o.Start < r.End-moldable.Eps {
				for _, p := range blocked[j] {
					taken[p] = true
				}
			}
		}
		procs := make([]int, 0, r.Procs)
		for p := m - 1; p >= 0 && len(procs) < r.Procs; p-- {
			if !taken[p] {
				procs = append(procs, p)
			}
		}
		if len(procs) < r.Procs {
			return nil, fmt.Errorf("reservation: reservations overlapping %q need more than the machine's %d processors", r.String(), m)
		}
		blocked[i] = procs
	}
	if m-peakReserved(reservations) < 1 {
		return nil, fmt.Errorf("reservation: reservations block the whole %d-processor machine at their peak", m)
	}
	return blocked, nil
}

// peakReserved returns the maximum number of simultaneously reserved
// processors.
func peakReserved(reservations []Reservation) int {
	type event struct {
		t     float64
		delta int
	}
	var events []event
	for _, r := range reservations {
		events = append(events, event{r.Start, r.Procs}, event{r.End, -r.Procs})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].t == events[j].t {
			return events[i].delta < events[j].delta
		}
		return events[i].t < events[j].t
	})
	peak, cur := 0, 0
	for _, e := range events {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// PriorityItems converts a schedule into list-scheduler items ordered by
// start time (then by decreasing duration, then task ID): the priority
// order the compaction of the original schedule expressed. It is used to
// re-place an existing plan around reserved windows, here and by the
// cluster engine.
func PriorityItems(s *schedule.Schedule) []listsched.Item {
	assignments := make([]schedule.Assignment, len(s.Assignments))
	copy(assignments, s.Assignments)
	sort.SliceStable(assignments, func(a, b int) bool {
		if assignments[a].Start != assignments[b].Start {
			return assignments[a].Start < assignments[b].Start
		}
		if assignments[a].Duration != assignments[b].Duration {
			return assignments[a].Duration > assignments[b].Duration
		}
		return assignments[a].TaskID < assignments[b].TaskID
	})
	items := make([]listsched.Item, len(assignments))
	for i, a := range assignments {
		items[i] = listsched.Item{TaskID: a.TaskID, NProcs: a.NProcs, Duration: a.Duration}
	}
	return items
}

// ValidateAgainstReservations checks that no assignment of the schedule
// overlaps a blocked processor during its reserved window.
func ValidateAgainstReservations(s *schedule.Schedule, reservations []Reservation, blocked [][]int) error {
	if len(reservations) != len(blocked) {
		return fmt.Errorf("reservation: %d reservations but %d blocked sets", len(reservations), len(blocked))
	}
	for ri, r := range reservations {
		blockedSet := make(map[int]bool, len(blocked[ri]))
		for _, p := range blocked[ri] {
			blockedSet[p] = true
		}
		for i := range s.Assignments {
			a := &s.Assignments[i]
			if a.Start >= r.End-moldable.Eps || a.End() <= r.Start+moldable.Eps {
				continue
			}
			for _, p := range a.Procs {
				if blockedSet[p] {
					return fmt.Errorf("reservation: task %d uses reserved processor %d during [%g, %g)", a.TaskID, p, r.Start, r.End)
				}
			}
		}
	}
	return nil
}
