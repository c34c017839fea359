// Package baselines implements the reference algorithms the paper compares
// DEMT against (section 4.1):
//
//   - Gang: every task runs on all processors, tasks sorted by decreasing
//     weight over execution time (optimal for perfectly moldable tasks);
//
//   - Sequential: every task runs on a single processor, scheduled by the
//     largest-processing-time-first list algorithm;
//
//   - ListGraham (three variants): every task uses the allotment computed by
//     the dual-approximation algorithm [7], then a multiprocessor list
//     algorithm runs with one of three orders: the shelf order of [7],
//     weighted LPT, or smallest area first (SAF).
package baselines

import (
	"context"
	"fmt"
	"sort"

	"bicriteria/internal/dualapprox"
	"bicriteria/internal/listsched"
	"bicriteria/internal/moldable"
	"bicriteria/internal/schedule"
)

// GangContext schedules every task of tab.Inst on all the processors it
// can use (its full allocation), one task after the other, sorted by
// decreasing ratio of weight over execution time (Smith's rule on the gang
// execution times). tab is moldable.NewTable of the instance, so a caller
// sharing it with the other schedulers validates the instance once; an
// invalid instance fails with tab.Err. The context is checked at every
// task placement so a racing portfolio can abort a straggling member; a
// cancellation returns the context's error (errors.Is(err, ctx.Err())
// holds).
func GangContext(ctx context.Context, tab *moldable.Table) (*schedule.Schedule, error) {
	if tab.Err != nil {
		return nil, tab.Err
	}
	inst := tab.Inst
	type entry struct {
		idx   int
		procs int
		dur   float64
	}
	entries := make([]entry, inst.N())
	for i := range inst.Tasks {
		t := &inst.Tasks[i]
		k := t.MaxProcs()
		entries[i] = entry{idx: i, procs: k, dur: t.Time(k)}
	}
	sort.SliceStable(entries, func(a, b int) bool {
		ta, tb := &inst.Tasks[entries[a].idx], &inst.Tasks[entries[b].idx]
		// Decreasing weight / execution time.
		return ta.Weight*entries[b].dur > tb.Weight*entries[a].dur
	})
	// Every task runs on a prefix [0, procs) of the machine, so the
	// assignments share one processor list, each capacity-clipped to its
	// own length.
	all := make([]int, inst.M)
	for p := range all {
		all[p] = p
	}
	sched := schedule.New(inst.M)
	now := 0.0
	for _, e := range entries {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("baselines: gang loop aborted: %w", err)
		}
		t := &inst.Tasks[e.idx]
		sched.Add(schedule.Assignment{
			TaskID:   t.ID,
			Start:    now,
			NProcs:   e.procs,
			Procs:    all[:e.procs:e.procs],
			Duration: e.dur,
		})
		now += e.dur
	}
	return sched, nil
}

// SequentialContext schedules every task of tab.Inst on a single
// processor with the classical largest-processing-time-first list
// algorithm. As for GangContext, tab is moldable.NewTable of the instance
// and an invalid instance fails with tab.Err. The context is checked
// inside the list loop.
func SequentialContext(ctx context.Context, tab *moldable.Table) (*schedule.Schedule, error) {
	if tab.Err != nil {
		return nil, tab.Err
	}
	inst := tab.Inst
	items := make([]listsched.Item, inst.N())
	for i := range inst.Tasks {
		items[i] = listsched.Item{TaskID: inst.Tasks[i].ID, NProcs: 1, Duration: inst.Tasks[i].SeqTime()}
	}
	sort.SliceStable(items, func(a, b int) bool { return items[a].Duration > items[b].Duration })
	return listsched.GrahamContext(ctx, inst.M, items)
}

// ListOrder selects the priority order of the ListGraham baseline.
type ListOrder int

const (
	// ShelfOrder keeps the order of the dual-approximation construction:
	// tasks of the large shelf first, then the small shelf, then the small
	// sequential tasks (within each group, longest first).
	ShelfOrder ListOrder = iota
	// WeightedLPT sorts tasks by decreasing ratio of weight over execution
	// time under their allotment (the "weighted LPTF" variant of the
	// paper).
	WeightedLPT
	// SmallestAreaFirst sorts tasks by increasing area (allotment times
	// execution time), targeting the minsum criterion.
	SmallestAreaFirst
)

// String names the order for figures and CLI flags.
func (o ListOrder) String() string {
	switch o {
	case ShelfOrder:
		return "list-shelf"
	case WeightedLPT:
		return "list-weighted-lpt"
	case SmallestAreaFirst:
		return "list-saf"
	default:
		return fmt.Sprintf("ListOrder(%d)", int(o))
	}
}

// ListGrahamContext computes the dual-approximation allotment and runs the
// Graham list algorithm with the requested order. The context is checked
// inside the list loop. TwoShelf builds the instance's table, so an
// invalid instance fails with the error inst.Validate returns.
func ListGrahamContext(ctx context.Context, inst *moldable.Instance, order ListOrder) (*schedule.Schedule, error) {
	res, err := dualapprox.TwoShelf(inst)
	if err != nil {
		return nil, err
	}
	return ListGrahamWithAllotmentContext(ctx, inst, res, order)
}

// ListGrahamWithAllotmentContext is ListGrahamContext with a pre-computed
// dual-approximation result, so the list variants and DEMT can share one
// allotment computation: the experiment harness shares it per instance,
// the cluster portfolio per batch.
func ListGrahamWithAllotmentContext(ctx context.Context, inst *moldable.Instance, res *dualapprox.Result, order ListOrder) (*schedule.Schedule, error) {
	if len(res.Allotment) != inst.N() {
		return nil, fmt.Errorf("baselines: allotment has %d entries for %d tasks", len(res.Allotment), inst.N())
	}
	items := make([]listsched.Item, inst.N())
	for i := range inst.Tasks {
		k := res.Allotment[i]
		items[i] = listsched.Item{TaskID: inst.Tasks[i].ID, NProcs: k, Duration: inst.Tasks[i].Time(k)}
	}
	switch order {
	case ShelfOrder:
		rank := shelfRank(res)
		sort.SliceStable(items, func(a, b int) bool {
			ra, rb := rank[items[a].TaskID], rank[items[b].TaskID]
			if ra != rb {
				return ra < rb
			}
			return items[a].Duration > items[b].Duration
		})
	case WeightedLPT:
		weight := taskWeights(inst)
		sort.SliceStable(items, func(a, b int) bool {
			wa, wb := weight[items[a].TaskID], weight[items[b].TaskID]
			return wa*items[b].Duration > wb*items[a].Duration
		})
	case SmallestAreaFirst:
		sort.SliceStable(items, func(a, b int) bool {
			areaA := float64(items[a].NProcs) * items[a].Duration
			areaB := float64(items[b].NProcs) * items[b].Duration
			return areaA < areaB
		})
	default:
		return nil, fmt.Errorf("baselines: unknown list order %d", int(order))
	}
	return listsched.GrahamContext(ctx, inst.M, items)
}

// shelfRank maps task IDs to their group in the shelf order: 0 for the
// large shelf, 1 for the small shelf, 2 for the small sequential filler.
func shelfRank(res *dualapprox.Result) map[int]int {
	rank := make(map[int]int)
	for _, id := range res.Shelf1 {
		rank[id] = 0
	}
	for _, id := range res.Shelf2 {
		rank[id] = 1
	}
	for _, id := range res.Small {
		rank[id] = 2
	}
	return rank
}

func taskWeights(inst *moldable.Instance) map[int]float64 {
	w := make(map[int]float64, inst.N())
	for i := range inst.Tasks {
		w[inst.Tasks[i].ID] = inst.Tasks[i].Weight
	}
	return w
}
