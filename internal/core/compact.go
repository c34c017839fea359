package core

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"bicriteria/internal/listsched"
	"bicriteria/internal/moldable"
	"bicriteria/internal/schedule"
)

// compact turns the raw batch schedule into the final schedule according to
// the compaction mode, returning the schedule and the number of alternative
// orders evaluated by the shuffle optimization.
func compact(ctx context.Context, inst *moldable.Instance, res *Result, opts Options) (*schedule.Schedule, int, error) {
	switch opts.Compaction {
	case CompactionNone:
		return res.Raw.Clone(), 0, nil
	case CompactionEarliestStart:
		return earliestStartCompaction(res.Raw), 0, nil
	case CompactionList:
		s, err := listsched.GrahamContext(ctx, inst.M, newBatchList(inst, res.Batches).items)
		return s, 0, err
	case CompactionListShuffle:
		return shuffleCompaction(ctx, inst, res, opts)
	default:
		return nil, 0, fmt.Errorf("core: unknown compaction mode %d", int(opts.Compaction))
	}
}

// earliestStartCompaction slides every task of the raw schedule to the
// earliest instant at which all of its own processors are idle, keeping the
// processor assignment and the relative order of start times (the paper's
// "straightforward improvement").
func earliestStartCompaction(raw *schedule.Schedule) *schedule.Schedule {
	out := raw.Clone()
	order := make([]int, len(out.Assignments))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return out.Assignments[order[a]].Start < out.Assignments[order[b]].Start
	})
	freeAt := make([]float64, out.M)
	for _, i := range order {
		a := &out.Assignments[i]
		start := 0.0
		for _, p := range a.Procs {
			if freeAt[p] > start {
				start = freeAt[p]
			}
		}
		a.Start = start
		for _, p := range a.Procs {
			freeAt[p] = start + a.Duration
		}
	}
	return out
}

// batchList is the compaction's list: every batch's tasks as
// list-scheduler items, the batches in order and each batch's tasks
// longest first (the sort is stable, so equal durations keep the
// selection order). Batch b holds items[bounds[b]:bounds[b+1]], and
// weights[i] is the weight of item i's task.
type batchList struct {
	items   []listsched.Item
	weights []float64
	bounds  []int
}

func newBatchList(inst *moldable.Instance, batches []Batch) *batchList {
	n := 0
	for b := range batches {
		for _, it := range batches[b].selection {
			n += len(it.taskIdxs)
		}
	}
	l := &batchList{
		items:   make([]listsched.Item, 0, n),
		weights: make([]float64, n),
		bounds:  make([]int, 1, len(batches)+1),
	}
	// The items carry their task's index while they are sorted; it then
	// gives way to the task's ID and fills in the weight.
	for b := range batches {
		for _, it := range batches[b].selection {
			for k, idx := range it.taskIdxs {
				l.items = append(l.items, listsched.Item{TaskID: idx, NProcs: it.alloc, Duration: it.durations[k]})
			}
		}
		seg := l.items[l.bounds[b]:]
		slices.SortStableFunc(seg, func(a, b listsched.Item) int { return cmp.Compare(b.Duration, a.Duration) })
		l.bounds = append(l.bounds, len(l.items))
	}
	for i := range l.items {
		t := &inst.Tasks[l.items[i].TaskID]
		l.items[i].TaskID, l.weights[i] = t.ID, t.Weight
	}
	return l
}

// arrange copies the list into items and weights with the batches in
// order, a permutation of the batch indices.
func (l *batchList) arrange(order []int, items []listsched.Item, weights []float64) {
	pos := 0
	for _, b := range order {
		lo, hi := l.bounds[b], l.bounds[b+1]
		copy(items[pos:], l.items[lo:hi])
		copy(weights[pos:], l.weights[lo:hi])
		pos += hi - lo
	}
}

// shuffleCompaction implements the paper's final optimization: compact with
// the list algorithm in batch order, then try a few shuffled orders and
// keep the best resulting schedule (lowest weighted completion time, ties
// broken by makespan). The shuffles draw what rand.NewSource(opts.Seed)
// would, read from the process's memo of that seed's stream.
//
// An order is scored from the start times the list loop yields
// (listsched.Score), without building its schedule: the candidate being
// scored and the best so far live in buffers the compaction owns, a
// better candidate swaps places with the best, and only the best order's
// processors are swept at the end.
func shuffleCompaction(ctx context.Context, inst *moldable.Instance, res *Result, opts Options) (*schedule.Schedule, int, error) {
	list := newBatchList(inst, res.Batches)
	n := len(list.items)
	items, bestItems := make([]listsched.Item, n), make([]listsched.Item, n)
	weights := make([]float64, n)
	var placed, best []listsched.Placement
	var loop listsched.Loop
	var bestMinsum, bestCmax float64
	order := make([]int, len(res.Batches))
	rng := seededRand(opts.Seed)
	tried := 0
	for s := 0; s <= opts.Shuffles; s++ {
		for i := range order {
			order[i] = i
		}
		if s > 0 {
			if err := ctx.Err(); err != nil {
				return nil, tried, fmt.Errorf("core: compaction aborted: %w", err)
			}
			shuffleBatchOrder(rng, order)
		}
		list.arrange(order, items, weights)
		if s > 0 {
			shuffleWithinBatches(rng, list, order, items, weights)
		}
		var err error
		if placed, err = loop.Place(ctx, inst.M, items, placed); err != nil {
			return nil, tried, err
		}
		tried++
		minsum, cmax := listsched.Score(items, placed, weights)
		if s == 0 || minsum < bestMinsum-moldable.Eps ||
			(minsum < bestMinsum+moldable.Eps && cmax < bestCmax-moldable.Eps) {
			bestMinsum, bestCmax = minsum, cmax
			items, bestItems = bestItems, items
			placed, best = best, placed
		}
	}
	return loop.Sweep(inst.M, bestItems, best), tried, nil
}

// shuffleBatchOrder perturbs the identity order with a few random adjacent
// transpositions, preserving the overall small-to-large structure that the
// minsum criterion relies on.
func shuffleBatchOrder(rng *rand.Rand, order []int) {
	n := len(order)
	if n < 2 {
		return
	}
	swaps := 1 + rng.Intn(n)
	for s := 0; s < swaps; s++ {
		i := rng.Intn(n - 1)
		order[i], order[i+1] = order[i+1], order[i]
	}
}

// shuffleWithinBatches randomly permutes the items belonging to the same
// batch, and their weights with them, leaving the relative order of the
// batches intact. items and weights were arranged from the list in the
// same order, so the batch segments are contiguous.
func shuffleWithinBatches(rng *rand.Rand, l *batchList, order []int, items []listsched.Item, weights []float64) {
	pos := 0
	for _, b := range order {
		size := l.bounds[b+1] - l.bounds[b]
		seg, w := items[pos:pos+size], weights[pos:pos+size]
		rng.Shuffle(size, func(i, j int) {
			seg[i], seg[j] = seg[j], seg[i]
			w[i], w[j] = w[j], w[i]
		})
		pos += size
	}
}
