// Package listsched implements list-scheduling engines for rigid parallel
// tasks (tasks whose allocation size has already been decided, e.g. by the
// dual-approximation allotment or by the DEMT batch selection).
//
// Two engines are provided:
//
//   - GrahamContext: the classical event-driven list algorithm (Garey &
//     Graham). At every event time, the highest-priority tasks that fit in
//     the free processors are started. A task may be overtaken by a
//     lower-priority task that fits when it does not ("greedy /
//     backfilling" behaviour), which is exactly the algorithm used by the
//     paper's list baselines and by the DEMT compaction step. It runs in
//     two parts. Loop.Place is the one event loop: it counts the idle
//     processors, keeps a min-heap of running tasks keyed by end time and
//     a linked list of the unplaced tasks in list order, and yields every
//     task's start time in placement order; an event costs O(log n) per
//     completion plus the unplaced tasks it scans. Loop.Sweep replays
//     those placements over a bitset of idle processors and hands each
//     task the lowest-index ones. Score reads the weighted completion
//     time and the makespan off the placements alone, so a caller that
//     compares several orders (the DEMT shuffle compaction) sweeps only
//     the one it keeps.
//
//   - InsertionWithReservations: tasks are placed strictly in priority
//     order, each at the earliest instant at which enough processors are
//     simultaneously idle, possibly inside holes left by previous
//     placements or blocked windows (conservative backfilling style). Used
//     to place plans around node reservations and outages.
package listsched

import (
	"context"
	"fmt"
	"math"
	"math/bits"
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
		if it.Release < 0 || math.IsNaN(it.Release) || math.IsInf(it.Release, 0) {
			return fmt.Errorf("listsched: item %d has invalid release date %g", it.TaskID, it.Release)
		}
	}
	return nil
}

// GrahamContext runs the event-driven list algorithm on m processors and
// returns a schedule with explicit processor assignments: Place's event
// loop followed by Sweep's processor hand-out. The context is checked at
// every event time of the list loop, so a racing portfolio can abort a
// straggling member mid-schedule. A cancellation returns the context's
// error (errors.Is(err, ctx.Err()) holds).
func GrahamContext(ctx context.Context, m int, items []Item) (*schedule.Schedule, error) {
	var l Loop
	placed, err := l.Place(ctx, m, items, nil)
	if err != nil {
		return nil, err
	}
	return l.Sweep(m, items, placed), nil
}

// Placement is one start decided by the list loop: the item's index in
// the list and its start time.
type Placement struct {
	Item  int
	Start float64
}

// Loop holds the list loop's buffers, so a caller that lists many orders
// of the same tasks reuses them from call to call. The zero value is
// ready to use.
type Loop struct {
	running endHeap
	link    []int32
}

// Place runs the list loop on m processors and appends to dst[:0] every
// item's start, in placement order: at every event time, the unplaced
// items are scanned in list order and each one released and narrow
// enough for the idle processors starts. Which processors it gets does
// not change which items fit, so the loop counts the idle processors and
// leaves naming them to Sweep. The context is checked at every event.
//
// The loop jumps from event to event over two structures: a min-heap of
// the started items keyed by end time, whose top is the next completion,
// and a linked list of the unplaced items in list order, the only items a
// placement pass or the release-date scan visits. An event costs O(log n)
// per completion plus the unplaced items it scans.
func (l *Loop) Place(ctx context.Context, m int, items []Item, dst []Placement) ([]Placement, error) {
	if err := validateItems(m, items); err != nil {
		return nil, err
	}
	n := len(items)
	if cap(dst) < n {
		dst = make([]Placement, 0, n)
	}
	dst = dst[:0]
	if n == 0 {
		return dst, nil
	}
	nIdle := m
	// Each started item holds at least one processor until it is popped,
	// so at most min(m, n) are running at once.
	if cap(l.running) < min(m, n) {
		l.running = make(endHeap, 0, min(m, n))
	}
	running := &l.running
	*running = (*running)[:0]
	// link[i] is the unplaced item after item i in list order, n ends the
	// list and head is the first unplaced item.
	if cap(l.link) < n {
		l.link = make([]int32, n)
	}
	link := l.link[:n]
	for i := range link {
		link[i] = int32(i + 1)
	}
	head := int32(0)

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

	// finish returns to the idle count the processors of every running
	// item that ends by limit.
	finish := func(limit float64) {
		for len(*running) > 0 && (*running)[0].end <= limit {
			nIdle += items[running.pop().idx].NProcs
		}
	}

	remaining := n
	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("listsched: list loop aborted: %w", err)
		}
		// The idle set at t is every processor whose item ended by t+Eps.
		finish(t + moldable.Eps)
		// Start as many tasks as possible, scanning the unplaced items in
		// priority order; an earlier (larger) task can never become
		// startable by a later placement, so a single pass is enough, and
		// it ends as soon as no processor is left.
		for at := &head; *at < int32(n) && nIdle > 0; {
			i := *at
			it := items[i]
			if it.Release > t+moldable.Eps || it.NProcs > nIdle {
				at = &link[i]
				continue
			}
			nIdle -= it.NProcs
			running.push(started{end: t + it.Duration, idx: i})
			dst = append(dst, Placement{Item: int(i), Start: t})
			*at = link[i]
			remaining--
		}
		if remaining == 0 {
			return dst, nil
		}
		// An item started at t that ends within Eps of it frees its
		// processors at the next event, not at t.
		finish(t + moldable.Eps)
		// Advance to the next event: a completion or a release date of an
		// unplaced item.
		next := math.Inf(1)
		if len(*running) > 0 {
			next = (*running)[0].end
		}
		if lastRelease > t+moldable.Eps {
			for i := head; i < int32(n); i = link[i] {
				if r := items[i].Release; r > t+moldable.Eps && r < next {
					next = r
				}
			}
		}
		if math.IsInf(next, 1) {
			return nil, fmt.Errorf("listsched: no progress possible at time %g (%d items left)", t, remaining)
		}
		t = next
	}
}

// Sweep builds the schedule of placements that Place returned for the
// same m and items. It replays them in order and hands each item the
// lowest-index idle processors, from a bitset of the idle processors.
// Before the first placement of a new start time t, it returns to the
// idle set the processors of every running item that ends by t+Eps: the
// loop's own rule, so an item that ends within Eps of its start keeps its
// processors through the placements of that instant.
func (l *Loop) Sweep(m int, items []Item, placed []Placement) *schedule.Schedule {
	sched := schedule.New(m)
	if len(placed) == 0 {
		return sched
	}
	sched.Assignments = make([]schedule.Assignment, 0, len(placed))
	// idle has bit p set while processor p is idle.
	idle := make([]uint64, (m+63)/64)
	for w := range idle {
		idle[w] = ^uint64(0)
	}
	if m%64 != 0 {
		idle[len(idle)-1] = 1<<(m%64) - 1
	}
	// procs backs every assignment's processor list, each a
	// capacity-clipped window of it.
	totalProcs := 0
	for _, pl := range placed {
		totalProcs += items[pl.Item].NProcs
	}
	procs := make([]int, totalProcs)
	running := &l.running
	*running = (*running)[:0]
	t := placed[0].Start
	for _, pl := range placed {
		if pl.Start != t {
			t = pl.Start
			for len(*running) > 0 && (*running)[0].end <= t+moldable.Eps {
				for _, q := range sched.Assignments[running.pop().idx].Procs {
					idle[q>>6] |= 1 << (q & 63)
				}
			}
		}
		it := items[pl.Item]
		p := procs[:it.NProcs:it.NProcs]
		procs = procs[it.NProcs:]
		for w, k := 0, 0; k < len(p); w++ {
			for ; idle[w] != 0 && k < len(p); k++ {
				p[k] = w<<6 | bits.TrailingZeros64(idle[w])
				idle[w] &= idle[w] - 1
			}
		}
		running.push(started{end: t + it.Duration, idx: int32(len(sched.Assignments))})
		sched.Add(schedule.Assignment{
			TaskID:   it.TaskID,
			Start:    t,
			NProcs:   it.NProcs,
			Procs:    p,
			Duration: it.Duration,
		})
	}
	return sched
}

// Score returns the weighted completion time and the makespan of the
// schedule Sweep builds from placed, without building it: weight[i] is
// item i's weight, the sum runs in placement order and the ends are
// start + duration, so both equal the schedule's WeightedCompletion and
// Makespan bit for bit.
func Score(items []Item, placed []Placement, weight []float64) (minsum, cmax float64) {
	for _, pl := range placed {
		end := pl.Start + items[pl.Item].Duration
		minsum += weight[pl.Item] * end
		if end > cmax {
			cmax = end
		}
	}
	return minsum, cmax
}

// started is a running item of the list loop: its end time and its index
// in the list (Place) or in the schedule's assignments (Sweep).
type started struct {
	end float64
	idx int32
}

// endHeap is a binary min-heap of running items ordered by end time.
type endHeap []started

func (h *endHeap) push(s started) {
	*h = append(*h, s)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if q[parent].end <= q[i].end {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
}

func (h *endHeap) pop() started {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && q[c+1].end < q[c].end {
			c++
		}
		if q[i].end <= q[c].end {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	*h = q
	return top
}

// interval is a busy period on a processor.
type interval struct {
	start, end float64
}

// InsertionWithReservations places the items strictly in list order, each
// at the earliest feasible start time, filling holes of the partial
// schedule, on a machine whose processors are partially unavailable: the
// reservations are blocked out before any item is placed. The returned
// schedule carries explicit processor assignments and only contains the
// items (reservations are not assignments).
func InsertionWithReservations(m int, reservations []schedule.Window, items []Item) (*schedule.Schedule, error) {
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
