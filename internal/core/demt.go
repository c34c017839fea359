// Package core implements the paper's primary contribution: the DEMT
// bi-criteria batch algorithm for scheduling moldable tasks on a cluster
// (Dutot, Eyraud, Mounié, Trystram — SPAA 2004, section 3.2).
//
// The algorithm:
//
//  1. computes an approximation C*max of the optimal makespan with the
//     dual-approximation algorithm (package dualapprox);
//  2. builds geometric batch lengths t_j = C*max / 2^(K-j) with
//     K = floor(log2(C*max / tmin)), so that the batch lengths double and
//     the last "paper" batch has length C*max;
//  3. for each batch, gathers the tasks that can complete within the batch
//     length, merges the small sequential ones by decreasing weight, and
//     selects the subset of maximal total weight that fits on the m
//     processors with a knapsack dynamic program;
//  4. compacts the resulting shelf schedule with a list algorithm driven by
//     the batch order, optionally trying a few shuffled orders and keeping
//     the best schedule found.
//
// Termination note: the paper's pseudo-code stops after batch K. When the
// m-processor budget, rather than the batch length, keeps some tasks out of
// every batch up to K, this implementation keeps adding batches past K —
// each twice as long as the one before and starting where it ends — until
// every task is placed. A run that would need more than 4096 extra batches
// fails instead of looping.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"bicriteria/internal/dualapprox"
	"bicriteria/internal/knapsack"
	"bicriteria/internal/moldable"
	"bicriteria/internal/schedule"
)

// CompactionMode selects how the raw batch schedule is turned into the
// final schedule.
type CompactionMode int

const (
	// CompactionListShuffle (default) runs the Graham list algorithm in
	// batch order and additionally tries a few shuffled within-batch orders,
	// keeping the best schedule (the paper's final optimization step).
	CompactionListShuffle CompactionMode = iota
	// CompactionList runs the Graham list algorithm in batch order only.
	CompactionList
	// CompactionEarliestStart only slides every task earlier on its own
	// processors when they are idle (the paper's "straightforward
	// improvement").
	CompactionEarliestStart
	// CompactionNone keeps every selected task at the start of its batch.
	CompactionNone
)

// String names the compaction mode.
func (c CompactionMode) String() string {
	switch c {
	case CompactionListShuffle:
		return "list+shuffle"
	case CompactionList:
		return "list"
	case CompactionEarliestStart:
		return "earliest-start"
	case CompactionNone:
		return "none"
	default:
		return fmt.Sprintf("CompactionMode(%d)", int(c))
	}
}

// SelectionMode selects how the tasks of a batch are chosen.
type SelectionMode int

const (
	// SelectionKnapsack maximizes the selected weight with the O(mn)
	// knapsack dynamic program (the paper's choice).
	SelectionKnapsack SelectionMode = iota
	// SelectionGreedy takes eligible items by decreasing weight density
	// (weight per processor) until the machine is full; used for ablation.
	SelectionGreedy
)

// String names the selection mode.
func (s SelectionMode) String() string {
	switch s {
	case SelectionKnapsack:
		return "knapsack"
	case SelectionGreedy:
		return "greedy"
	default:
		return fmt.Sprintf("SelectionMode(%d)", int(s))
	}
}

// Options tunes the DEMT algorithm. The zero value reproduces the paper's
// algorithm.
type Options struct {
	// Shuffles is the number of shuffled orders tried by the final
	// optimization step (default 8, ignored unless the compaction mode is
	// CompactionListShuffle).
	Shuffles int
	// Seed drives the shuffles (default 1).
	Seed int64
	// Compaction selects the compaction mode.
	Compaction CompactionMode
	// Selection selects the batch selection mode.
	Selection SelectionMode
	// CmaxEstimate, when positive, is used instead of running the
	// dual-approximation algorithm.
	CmaxEstimate float64
	// Timing, when set, receives the wall-clock seconds spent in each
	// internal phase of a successful run, in order: "validate" (building
	// the instance's moldable.Table, which validates it and which every
	// later step reads; next to nothing under ScheduleTable, whose caller
	// built it), "dualapprox" (step 1: the two-shelf dual approximation,
	// next to nothing when CmaxEstimate is given because the caller ran
	// step 1), "knapsack" (batch construction) and "compact" (the
	// compaction pass); together they cover the whole run.
	// Wall-clock timings are observational only — they must never feed
	// back into scheduling decisions, which would break deterministic
	// replays.
	Timing func(phase string, seconds float64)
}

func (o *Options) withDefaults() Options {
	opts := Options{Shuffles: 8, Seed: 1}
	if o != nil {
		opts.Compaction = o.Compaction
		opts.Selection = o.Selection
		opts.CmaxEstimate = o.CmaxEstimate
		opts.Timing = o.Timing
		if o.Shuffles > 0 {
			opts.Shuffles = o.Shuffles
		}
		if o.Seed != 0 {
			opts.Seed = o.Seed
		}
	}
	return opts
}

// Batch describes one batch of the algorithm, mainly for inspection, tests
// and the CLI's verbose output.
type Batch struct {
	// Index is the batch number j (0-based).
	Index int
	// Start and End delimit the batch window [t_j, t_{j+1}) in the raw
	// (pre-compaction) schedule.
	Start, End float64
	// Length is the batch length t_{j+1} - t_j = t_j.
	Length float64
	// TaskIDs lists the tasks selected in this batch.
	TaskIDs []int
	// MergedGroups lists the groups of small sequential tasks stacked on a
	// single processor ("merge" step of the paper); every listed task also
	// appears in TaskIDs.
	MergedGroups [][]int
	// UsedProcessors is the processor budget consumed by the batch.
	UsedProcessors int
	// SelectedWeight is the total weight chosen by the knapsack.
	SelectedWeight float64

	// selection keeps the chosen items (tasks and merged stacks) so the raw
	// schedule and the compaction passes can be built without re-deriving
	// allocations.
	selection []batchItem
}

// Result is the outcome of the DEMT algorithm.
type Result struct {
	// Schedule is the final (compacted) schedule.
	Schedule *schedule.Schedule
	// Raw is the un-compacted batch schedule (tasks start at their batch
	// boundary), kept for inspection and ablation.
	Raw *schedule.Schedule
	// CmaxEstimate is the approximate optimal makespan used to anchor the
	// batches.
	CmaxEstimate float64
	// TMin is the smallest processing time of the instance.
	TMin float64
	// K is the batch exponent of the paper (number of "paper" batches is
	// K+1).
	K int
	// Batches describes every non-empty batch, in order.
	Batches []Batch
	// ShufflesTried is the number of alternative orders evaluated by the
	// final optimization step.
	ShufflesTried int
}

// ScheduleContext runs the DEMT algorithm with the given options (nil for
// the paper's defaults). The context is checked at every batch of the
// knapsack construction loop and at every shuffle of the compaction pass,
// so a racing portfolio can cancel a straggling run: a cancellation aborts
// the run promptly and returns the context's error (errors.Is(err,
// ctx.Err()) holds).
func ScheduleContext(ctx context.Context, inst *moldable.Instance, opts *Options) (*Result, error) {
	return run(ctx, inst, nil, opts.withDefaults())
}

// ScheduleTable is ScheduleContext for a caller that already holds
// moldable.NewTable of the instance: the run reads that table instead of
// building its own, so it neither scans nor validates the instance again.
// An invalid instance fails with tab.Err.
func ScheduleTable(ctx context.Context, tab *moldable.Table, opts *Options) (*Result, error) {
	return run(ctx, tab.Inst, tab, opts.withDefaults())
}

// maxExtraBatches bounds the number of batches added beyond the paper's
// K+1 before giving up (termination safety net; in practice one or two
// extra batches suffice).
const maxExtraBatches = 4096

// run schedules inst, reading tab when the caller holds it and building
// it in the "validate" phase otherwise.
func run(ctx context.Context, inst *moldable.Instance, tab *moldable.Table, opts Options) (*Result, error) {
	err := opts.phase("validate", func() error {
		if tab == nil {
			tab = moldable.NewTable(inst)
		}
		return tab.Err
	})
	if err != nil {
		return nil, err
	}

	res := &Result{}

	// Step 1: approximate optimal makespan, unless the caller holds it.
	err = opts.phase("dualapprox", func() error {
		if opts.CmaxEstimate > 0 {
			res.CmaxEstimate = opts.CmaxEstimate
			return nil
		}
		da, err := dualapprox.TwoShelfTable(tab, dualapprox.MakespanLowerBound(tab))
		if err != nil {
			return err
		}
		res.CmaxEstimate = da.Estimate
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Step 2: batch geometry.
	res.TMin = tab.TMin
	res.K = int(math.Floor(math.Log2(res.CmaxEstimate / res.TMin)))
	if res.K < 0 {
		res.K = 0
	}
	// batchLength(j) = t_j = C*max / 2^(K-j) is both the start of batch j
	// and its length; it doubles with j and keeps doubling past K for the
	// termination extension.
	batchLength := func(j int) float64 {
		return math.Ldexp(res.CmaxEstimate, j-res.K)
	}

	// Step 3: batch construction.
	err = opts.phase("knapsack", func() error {
		remaining := make([]bool, inst.N()) // by index into inst.Tasks
		for i := range remaining {
			remaining[i] = true
		}
		left := len(remaining)
		raw := schedule.New(inst.M)
		for j := 0; left > 0; j++ {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("core: batch construction aborted: %w", err)
			}
			if j > res.K+1+maxExtraBatches {
				return fmt.Errorf("core: batch construction did not terminate after %d batches", j)
			}
			length := batchLength(j)
			batch := buildBatch(tab, remaining, j, length, length, opts.Selection)
			if batch == nil {
				continue
			}
			for _, it := range batch.selection {
				for _, idx := range it.taskIdxs {
					remaining[idx] = false
					left--
				}
			}
			appendBatchAssignments(inst, raw, batch)
			res.Batches = append(res.Batches, *batch)
		}
		res.Raw = raw
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Step 4: compaction.
	err = opts.phase("compact", func() error {
		final, tried, err := compact(ctx, inst, res, opts)
		res.Schedule, res.ShufflesTried = final, tried
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// phase runs one step of a run and, when it succeeds, reports its
// wall-clock time to the Timing hook under the given name.
func (o Options) phase(name string, step func() error) error {
	if o.Timing == nil {
		return step()
	}
	start := time.Now() //lint:allow nowallclock wall-clock feeds the Timing observability hook only, never a scheduling decision
	if err := step(); err != nil {
		return err
	}
	o.Timing(name, time.Since(start).Seconds()) //lint:allow nowallclock wall-clock feeds the Timing observability hook only, never a scheduling decision
	return nil
}

// batchItem is a knapsack candidate: either a single task or a merged group
// of small sequential tasks stacked on one processor.
type batchItem struct {
	taskIdxs []int // indices into inst.Tasks
	alloc    int
	weight   float64
	// durations of every stacked task under the chosen allocation.
	durations []float64
}

// buildBatch selects the content of batch j. It returns nil when no
// remaining task fits in the batch length.
func buildBatch(tab *moldable.Table, remaining []bool, j int, start, length float64, selection SelectionMode) *Batch {
	inst := tab.Inst
	var smallSeq []int // indices of tasks mergeable on one processor
	var items []batchItem

	for i, left := range remaining {
		if !left {
			continue
		}
		t := &inst.Tasks[i]
		alloc, ok := tab.MinAlloc(i, length)
		if !ok {
			continue
		}
		if t.SeqTime() <= length/2+moldable.Eps {
			smallSeq = append(smallSeq, i)
			continue
		}
		items = append(items, batchItem{
			taskIdxs:  []int{i},
			alloc:     alloc,
			weight:    t.Weight,
			durations: []float64{t.Time(alloc)},
		})
	}

	// Merge the small sequential tasks by decreasing weight: stack them on a
	// single processor while the stack still fits in the batch.
	sort.SliceStable(smallSeq, func(a, b int) bool {
		return inst.Tasks[smallSeq[a]].Weight > inst.Tasks[smallSeq[b]].Weight
	})
	var mergedGroups [][]int
	var current batchItem
	currentLen := 0.0
	flush := func() {
		if len(current.taskIdxs) > 0 {
			current.alloc = 1
			items = append(items, current)
			if len(current.taskIdxs) > 1 {
				ids := make([]int, len(current.taskIdxs))
				for k, idx := range current.taskIdxs {
					ids[k] = inst.Tasks[idx].ID
				}
				mergedGroups = append(mergedGroups, ids)
			}
			current = batchItem{}
			currentLen = 0
		}
	}
	for _, i := range smallSeq {
		t := &inst.Tasks[i]
		if currentLen+t.SeqTime() > length+moldable.Eps {
			flush()
		}
		current.taskIdxs = append(current.taskIdxs, i)
		current.durations = append(current.durations, t.SeqTime())
		current.weight += t.Weight
		currentLen += t.SeqTime()
	}
	flush()

	if len(items) == 0 {
		return nil
	}

	selected := selectItems(items, inst.M, selection)
	if len(selected) == 0 {
		return nil
	}

	batch := &Batch{Index: j, Start: start, End: start + length, Length: length, MergedGroups: mergedGroups}
	usedMerged := make(map[int]bool)
	for _, g := range mergedGroups {
		for _, id := range g {
			usedMerged[id] = false
		}
	}
	totalWeight := 0.0
	usedProcs := 0
	for _, sel := range selected {
		it := items[sel]
		usedProcs += it.alloc
		totalWeight += it.weight
		for _, idx := range it.taskIdxs {
			batch.TaskIDs = append(batch.TaskIDs, inst.Tasks[idx].ID)
			if _, ok := usedMerged[inst.Tasks[idx].ID]; ok {
				usedMerged[inst.Tasks[idx].ID] = true
			}
		}
	}
	// Keep only merged groups whose tasks were actually selected.
	var keptGroups [][]int
	for _, g := range mergedGroups {
		kept := true
		for _, id := range g {
			if !usedMerged[id] {
				kept = false
				break
			}
		}
		if kept {
			keptGroups = append(keptGroups, g)
		}
	}
	batch.MergedGroups = keptGroups
	batch.UsedProcessors = usedProcs
	batch.SelectedWeight = totalWeight
	sort.Ints(batch.TaskIDs)

	// Remember the selected items for assignment construction.
	batch.selection = make([]batchItem, len(selected))
	for k, sel := range selected {
		batch.selection[k] = items[sel]
	}
	return batch
}

// selectItems returns the indices of the chosen items.
func selectItems(items []batchItem, capacity int, mode SelectionMode) []int {
	switch mode {
	case SelectionGreedy:
		order := make([]int, len(items))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			da := items[order[a]].weight / float64(items[order[a]].alloc)
			db := items[order[b]].weight / float64(items[order[b]].alloc)
			return da > db
		})
		var chosen []int
		used := 0
		for _, i := range order {
			if used+items[i].alloc <= capacity {
				chosen = append(chosen, i)
				used += items[i].alloc
			}
		}
		sort.Ints(chosen)
		return chosen
	default: // SelectionKnapsack
		kItems := make([]knapsack.Item, len(items))
		for i, it := range items {
			kItems[i] = knapsack.Item{Cost: it.alloc, Value: it.weight}
		}
		res, err := knapsack.MaxValue(kItems, capacity)
		if err != nil {
			return nil
		}
		return res.Selected
	}
}

// appendBatchAssignments materializes the selected items of a batch into
// the raw schedule: every item starts at the batch boundary, merged tasks
// are stacked sequentially on their processor, and processors are packed
// from index 0.
func appendBatchAssignments(inst *moldable.Instance, raw *schedule.Schedule, batch *Batch) {
	nextProc := 0
	for _, it := range batch.selection {
		procs := make([]int, it.alloc)
		for p := range procs {
			procs[p] = nextProc + p
		}
		nextProc += it.alloc
		offset := 0.0
		for k, idx := range it.taskIdxs {
			t := &inst.Tasks[idx]
			raw.Add(schedule.Assignment{
				TaskID:   t.ID,
				Start:    batch.Start + offset,
				NProcs:   it.alloc,
				Procs:    append([]int(nil), procs...),
				Duration: it.durations[k],
			})
			offset += it.durations[k]
		}
	}
}
