// Package listsched implements list-scheduling engines for rigid parallel
// tasks (tasks whose allocation size has already been decided, e.g. by the
// dual-approximation allotment or by the DEMT batch selection).
//
// Two engines are provided:
//
//   - Graham: the classical event-driven list algorithm (Garey & Graham). At
//     every event time, the highest-priority tasks that fit in the free
//     processors are started. A task may be overtaken by a lower-priority
//     task that fits when it does not ("greedy / backfilling" behaviour),
//     which is exactly the algorithm used by the paper's list baselines and
//     by the DEMT compaction step.
//
//   - Insertion: tasks are placed strictly in priority order, each at the
//     earliest instant at which enough processors are simultaneously idle,
//     possibly inside holes left by previous placements (conservative
//     backfilling style). Used for ablation studies of the compaction step.
package listsched

import (
	"context"
	"fmt"
	"math"
	"sort"

	"bicriteria/internal/moldable"
	"bicriteria/internal/schedule"
)

// Item is a rigid task handed to the list scheduler. Items are scheduled in
// the order of the slice (the "list" of list scheduling).
type Item struct {
	// TaskID is the identifier copied into the resulting assignment.
	TaskID int
	// NProcs is the (fixed) number of processors the task requires.
	NProcs int
	// Duration is the processing time for that allocation.
	Duration float64
	// Release is the earliest start time (0 in the off-line setting).
	Release float64
}

func validateItems(m int, items []Item) error {
	if m < 1 {
		return fmt.Errorf("listsched: machine needs at least one processor, got %d", m)
	}
	for _, it := range items {
		if it.NProcs < 1 || it.NProcs > m {
			return fmt.Errorf("listsched: item %d requires %d processors, machine has %d", it.TaskID, it.NProcs, m)
		}
		if it.Duration <= 0 || math.IsNaN(it.Duration) || math.IsInf(it.Duration, 0) {
			return fmt.Errorf("listsched: item %d has invalid duration %g", it.TaskID, it.Duration)
		}
		if it.Release < 0 {
			return fmt.Errorf("listsched: item %d has negative release date %g", it.TaskID, it.Release)
		}
	}
	return nil
}

// Graham runs the event-driven list algorithm on m processors and returns a
// schedule with explicit processor assignments.
func Graham(m int, items []Item) (*schedule.Schedule, error) {
	return GrahamContext(context.Background(), m, items) //lint:allow ctxflow dualapprox.TwoShelf's list fallback has no context to pass; TwoShelf runs to completion by design
}

// GrahamContext is Graham with cancellation: the context is checked at
// every event time of the list loop, so a racing portfolio can abort a
// straggling member mid-schedule. A cancellation returns the context's
// error (errors.Is(err, ctx.Err()) holds).
func GrahamContext(ctx context.Context, m int, items []Item) (*schedule.Schedule, error) {
	if err := validateItems(m, items); err != nil {
		return nil, err
	}
	sched := schedule.New(m)
	if len(items) == 0 {
		return sched, nil
	}
	sched.Assignments = make([]schedule.Assignment, 0, len(items))

	freeAt := make([]float64, m)
	done := make([]bool, len(items))
	remaining := len(items)
	// first is the first unplaced item; idle is the buffer every event's
	// free-processor list is built in; procs backs every assignment's
	// processor list, each a capacity-clipped window of it.
	first := 0
	idle := make([]int, 0, m)
	totalProcs := 0
	for _, it := range items {
		totalProcs += it.NProcs
	}
	procs := make([]int, totalProcs)

	// Start at the earliest release date; past the last one, no item can
	// be waiting for its release.
	t, lastRelease := math.Inf(1), math.Inf(-1)
	for _, it := range items {
		if it.Release < t {
			t = it.Release
		}
		if it.Release > lastRelease {
			lastRelease = it.Release
		}
	}

	for remaining > 0 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("listsched: list loop aborted: %w", err)
		}
		// Collect processors free at time t.
		free := idleAt(idle, freeAt, t)
		// Start as many tasks as possible, scanning the list in priority
		// order; an earlier (larger) task can never become startable by a
		// later placement, so a single pass is enough, and it ends as soon
		// as no processor is left.
		for i := first; i < len(items) && len(free) > 0; i++ {
			it := items[i]
			if done[i] || it.Release > t+moldable.Eps {
				continue
			}
			if it.NProcs <= len(free) {
				p := procs[:it.NProcs:it.NProcs]
				procs = procs[it.NProcs:]
				copy(p, free)
				free = free[it.NProcs:]
				for _, q := range p {
					freeAt[q] = t + it.Duration
				}
				sched.Add(schedule.Assignment{
					TaskID:   it.TaskID,
					Start:    t,
					NProcs:   it.NProcs,
					Procs:    p,
					Duration: it.Duration,
				})
				done[i] = true
				remaining--
			}
		}
		if remaining == 0 {
			break
		}
		for done[first] {
			first++
		}
		// Advance to the next event: a processor becoming free or a release
		// date of an unscheduled task.
		next := math.Inf(1)
		for _, f := range freeAt {
			if f > t+moldable.Eps && f < next {
				next = f
			}
		}
		if lastRelease > t+moldable.Eps {
			for i := first; i < len(items); i++ {
				it := items[i]
				if !done[i] && it.Release > t+moldable.Eps && it.Release < next {
					next = it.Release
				}
			}
		}
		if math.IsInf(next, 1) {
			return nil, fmt.Errorf("listsched: no progress possible at time %g (%d items left)", t, remaining)
		}
		t = next
	}
	return sched, nil
}

// idleAt appends to dst[:0] the indices of processors idle at time t, in
// increasing order.
func idleAt(dst []int, freeAt []float64, t float64) []int {
	dst = dst[:0]
	for p, f := range freeAt {
		if f <= t+moldable.Eps {
			dst = append(dst, p)
		}
	}
	return dst
}

// interval is a busy period on a processor.
type interval struct {
	start, end float64
}

// Busy describes a pre-existing occupation of specific processors, such as
// an administrative node reservation: the listed processors are unavailable
// during [Start, End).
type Busy struct {
	Procs      []int
	Start, End float64
}

// Insertion places the items strictly in list order, each at the earliest
// feasible start time, filling holes of the partial schedule. The returned
// schedule carries explicit processor assignments.
func Insertion(m int, items []Item) (*schedule.Schedule, error) {
	return InsertionWithReservations(m, nil, items)
}

// InsertionWithReservations is Insertion on a machine whose processors are
// partially unavailable: the reservations are blocked out before any item
// is placed. The returned schedule only contains the items (reservations
// are not assignments).
func InsertionWithReservations(m int, reservations []Busy, items []Item) (*schedule.Schedule, error) {
	if err := validateItems(m, items); err != nil {
		return nil, err
	}
	busy := make([][]interval, m)
	for _, r := range reservations {
		if r.End <= r.Start {
			return nil, fmt.Errorf("listsched: reservation has non-positive length [%g, %g)", r.Start, r.End)
		}
		for _, p := range r.Procs {
			if p < 0 || p >= m {
				return nil, fmt.Errorf("listsched: reservation uses processor %d outside [0,%d)", p, m)
			}
			busy[p] = insertInterval(busy[p], interval{r.Start, r.End})
		}
	}
	sched := schedule.New(m)

	for _, it := range items {
		start := earliestStart(busy, it)
		procs := freeDuring(busy, start, start+it.Duration)
		if len(procs) < it.NProcs {
			return nil, fmt.Errorf("listsched: internal error, %d processors free at %g but %d needed", len(procs), start, it.NProcs)
		}
		procs = procs[:it.NProcs]
		for _, p := range procs {
			busy[p] = insertInterval(busy[p], interval{start, start + it.Duration})
		}
		sched.Add(schedule.Assignment{
			TaskID:   it.TaskID,
			Start:    start,
			NProcs:   it.NProcs,
			Procs:    append([]int(nil), procs...),
			Duration: it.Duration,
		})
	}
	return sched, nil
}

// earliestStart finds the smallest start >= release at which NProcs
// processors are simultaneously free for the item's duration. Candidate
// start times are the release date and the ends of existing busy intervals.
func earliestStart(busy [][]interval, it Item) float64 {
	candidates := []float64{it.Release}
	for _, ivs := range busy {
		for _, iv := range ivs {
			if iv.end > it.Release-moldable.Eps {
				candidates = append(candidates, iv.end)
			}
		}
	}
	sort.Float64s(candidates)
	for _, c := range candidates {
		if c < it.Release-moldable.Eps {
			continue
		}
		if len(freeDuring(busy, c, c+it.Duration)) >= it.NProcs {
			return c
		}
	}
	// Unreachable: after the last busy interval everything is free.
	last := it.Release
	for _, ivs := range busy {
		for _, iv := range ivs {
			if iv.end > last {
				last = iv.end
			}
		}
	}
	return last
}

// freeDuring returns the processors idle during the whole [start, end)
// window, in increasing index order.
func freeDuring(busy [][]interval, start, end float64) []int {
	out := make([]int, 0, len(busy))
	for p, ivs := range busy {
		conflict := false
		for _, iv := range ivs {
			if iv.start < end-moldable.Eps && iv.end > start+moldable.Eps {
				conflict = true
				break
			}
		}
		if !conflict {
			out = append(out, p)
		}
	}
	return out
}

// insertInterval keeps the per-processor interval list sorted by start time.
func insertInterval(ivs []interval, iv interval) []interval {
	pos := sort.Search(len(ivs), func(i int) bool { return ivs[i].start >= iv.start })
	ivs = append(ivs, interval{})
	copy(ivs[pos+1:], ivs[pos:])
	ivs[pos] = iv
	return ivs
}
