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
		items := batchOrderItems(batchSegments(inst, res.Batches), nil)
		s, err := listsched.GrahamContext(ctx, inst.M, items)
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

// batchSegments returns every batch's tasks as list-scheduler items,
// longest first; the sort is stable, so equal durations keep the
// selection order.
func batchSegments(inst *moldable.Instance, batches []Batch) [][]listsched.Item {
	segments := make([][]listsched.Item, len(batches))
	for b := range batches {
		var seg []listsched.Item
		for _, it := range batches[b].selection {
			for k, idx := range it.taskIdxs {
				seg = append(seg, listsched.Item{
					TaskID:   inst.Tasks[idx].ID,
					NProcs:   it.alloc,
					Duration: it.durations[k],
				})
			}
		}
		slices.SortStableFunc(seg, func(a, b listsched.Item) int { return cmp.Compare(b.Duration, a.Duration) })
		segments[b] = seg
	}
	return segments
}

// batchOrderItems flattens the batch segments into one list, the batches
// in batchOrder (identity when nil). The list is a fresh copy, so the
// shuffling helpers can permute it in place.
func batchOrderItems(segments [][]listsched.Item, batchOrder []int) []listsched.Item {
	n := 0
	for _, seg := range segments {
		n += len(seg)
	}
	items := make([]listsched.Item, 0, n)
	for i := range segments {
		b := i
		if batchOrder != nil {
			b = batchOrder[i]
		}
		items = append(items, segments[b]...)
	}
	return items
}

// shuffleCompaction implements the paper's final optimization: compact with
// the list algorithm in batch order, then try a few shuffled orders and
// keep the best resulting schedule (lowest weighted completion time, ties
// broken by makespan). The shuffles draw what rand.NewSource(opts.Seed)
// would, read from the process's memo of that seed's stream.
func shuffleCompaction(ctx context.Context, inst *moldable.Instance, res *Result, opts Options) (*schedule.Schedule, int, error) {
	type candidate struct {
		sched  *schedule.Schedule
		minsum float64
		cmax   float64
	}
	// A candidate's minsum is Schedule.WeightedCompletion: the same sum in
	// assignment order, with the weight lookup built once for every
	// candidate instead of once per call. The run validated the instance,
	// so every ID is unique.
	weight := make(map[int]float64, len(inst.Tasks))
	for i := range inst.Tasks {
		weight[inst.Tasks[i].ID] = inst.Tasks[i].Weight
	}
	evaluate := func(items []listsched.Item) (*candidate, error) {
		s, err := listsched.GrahamContext(ctx, inst.M, items)
		if err != nil {
			return nil, err
		}
		minsum := 0.0
		for i := range s.Assignments {
			a := &s.Assignments[i]
			minsum += weight[a.TaskID] * a.End()
		}
		return &candidate{sched: s, minsum: minsum, cmax: s.Makespan()}, nil
	}

	// Every candidate lists the same sorted batches, only reordered.
	segments := batchSegments(inst, res.Batches)
	best, err := evaluate(batchOrderItems(segments, nil))
	if err != nil {
		return nil, 0, err
	}
	tried := 1

	rng := seededRand(opts.Seed)
	for s := 0; s < opts.Shuffles; s++ {
		if err := ctx.Err(); err != nil {
			return nil, tried, fmt.Errorf("core: compaction aborted: %w", err)
		}
		order := shuffledBatchOrder(rng, len(res.Batches))
		items := batchOrderItems(segments, order)
		shuffleWithinBatches(rng, items, segments, order)
		cand, err := evaluate(items)
		if err != nil {
			return nil, tried, err
		}
		tried++
		if cand.minsum < best.minsum-moldable.Eps ||
			(cand.minsum < best.minsum+moldable.Eps && cand.cmax < best.cmax-moldable.Eps) {
			best = cand
		}
	}
	return best.sched, tried, nil
}

// shuffledBatchOrder perturbs the identity order with a few random adjacent
// transpositions, preserving the overall small-to-large structure that the
// minsum criterion relies on.
func shuffledBatchOrder(rng *rand.Rand, n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if n < 2 {
		return order
	}
	swaps := 1 + rng.Intn(n)
	for s := 0; s < swaps; s++ {
		i := rng.Intn(n - 1)
		order[i], order[i+1] = order[i+1], order[i]
	}
	return order
}

// shuffleWithinBatches randomly permutes the items belonging to the same
// batch, leaving the relative order of the batches intact. items was built
// by batchOrderItems from the same segments and order, so the batch
// segments are contiguous.
func shuffleWithinBatches(rng *rand.Rand, items []listsched.Item, segments [][]listsched.Item, order []int) {
	pos := 0
	for _, b := range order {
		segment := items[pos : pos+len(segments[b])]
		rng.Shuffle(len(segment), func(i, j int) { segment[i], segment[j] = segment[j], segment[i] })
		pos += len(segment)
	}
}
