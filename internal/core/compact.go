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
		items := batchOrderItems(inst, res.Batches, nil)
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

// batchOrderItems flattens the batches into list-scheduler items. The batch
// order is given by batchOrder (identity when nil); inside a batch, tasks
// are ordered longest first unless a per-batch permutation is provided by
// the caller through the shuffling helpers.
func batchOrderItems(inst *moldable.Instance, batches []Batch, batchOrder []int) []listsched.Item {
	if batchOrder == nil {
		batchOrder = make([]int, len(batches))
		for i := range batchOrder {
			batchOrder[i] = i
		}
	}
	items := make([]listsched.Item, 0, len(inst.Tasks))
	for _, b := range batchOrder {
		start := len(items)
		for _, it := range batches[b].selection {
			for k, idx := range it.taskIdxs {
				items = append(items, listsched.Item{
					TaskID:   inst.Tasks[idx].ID,
					NProcs:   it.alloc,
					Duration: it.durations[k],
				})
			}
		}
		slices.SortStableFunc(items[start:], func(a, b listsched.Item) int { return cmp.Compare(b.Duration, a.Duration) })
	}
	return items
}

// shuffleCompaction implements the paper's final optimization: compact with
// the list algorithm in batch order, then try a few shuffled orders and
// keep the best resulting schedule (lowest weighted completion time, ties
// broken by makespan).
func shuffleCompaction(ctx context.Context, inst *moldable.Instance, res *Result, opts Options) (*schedule.Schedule, int, error) {
	type candidate struct {
		sched  *schedule.Schedule
		minsum float64
		cmax   float64
	}
	evaluate := func(items []listsched.Item) (*candidate, error) {
		s, err := listsched.GrahamContext(ctx, inst.M, items)
		if err != nil {
			return nil, err
		}
		return &candidate{sched: s, minsum: s.WeightedCompletion(inst), cmax: s.Makespan()}, nil
	}

	best, err := evaluate(batchOrderItems(inst, res.Batches, nil))
	if err != nil {
		return nil, 0, err
	}
	tried := 1

	rng := rand.New(rand.NewSource(opts.Seed))
	for s := 0; s < opts.Shuffles; s++ {
		if err := ctx.Err(); err != nil {
			return nil, tried, fmt.Errorf("core: compaction aborted: %w", err)
		}
		order := shuffledBatchOrder(rng, len(res.Batches))
		items := batchOrderItems(inst, res.Batches, order)
		shuffleWithinBatches(rng, items, res.Batches, order)
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
// by batchOrderItems with the same batchOrder, so the batch segments are
// contiguous.
func shuffleWithinBatches(rng *rand.Rand, items []listsched.Item, batches []Batch, order []int) {
	pos := 0
	for _, b := range order {
		count := 0
		for _, it := range batches[b].selection {
			count += len(it.taskIdxs)
		}
		segment := items[pos : pos+count]
		rng.Shuffle(len(segment), func(i, j int) { segment[i], segment[j] = segment[j], segment[i] })
		pos += count
	}
}
