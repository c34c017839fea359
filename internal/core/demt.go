// Package core implements the paper's primary contribution: the DEMT
// bi-criteria batch algorithm for scheduling moldable tasks on a cluster
// (Dutot, Eyraud, Mounié, Trystram — SPAA 2004, section 3.2).
//
// The algorithm:
//
//  1. computes an approximation C*max of the optimal makespan with the
//     dual-approximation algorithm (package dualapprox). It reads only the
//     estimate, so it calls dualapprox.Estimate: TwoShelf's bisection and
//     shelf layout, tracking the layout's latest end without building the
//     schedule, its shelf lists or its allotment;
//  2. builds geometric batch lengths t_j = C*max / 2^(K-j) with
//     K = floor(log2(C*max / tmin)), so that the batch lengths double and
//     the last "paper" batch has length C*max;
//  3. for each batch, gathers the tasks that can complete within the batch
//     length, merges the small sequential ones by decreasing weight, and
//     selects the subset of maximal total weight that fits on the m
//     processors with a knapsack dynamic program (knapsack.go), whose
//     tables the batches of one run share and whose rows stop at the
//     running allocation sum of the items so far;
//  4. compacts the resulting shelf schedule with a list algorithm driven by
//     the batch order, optionally trying a few shuffled orders and keeping
//     the best schedule found. Every order is scored, minsum first, from
//     the start times of the list loop alone (listsched.Loop.Place and
//     listsched.Score); only the best order gets processors
//     (listsched.Loop.Sweep), so the losing orders build no schedule.
//
// Termination note: the paper's pseudo-code stops after batch K. When the
// m-processor budget, rather than the batch length, keeps some tasks out of
// every batch up to K, this implementation keeps adding batches past K —
// each twice as long as the one before and starting where it ends — until
// every task is placed. A run that would need more than 4096 extra batches
// fails instead of looping.
package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"bicriteria/internal/dualapprox"
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
		var err error
		res.CmaxEstimate, err = dualapprox.Estimate(tab, dualapprox.MakespanLowerBound(tab))
		return err
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
		raw.Assignments = make([]schedule.Assignment, 0, left)
		sc := newBatchScratch(left, inst.M)
		for j := 0; left > 0; j++ {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("core: batch construction aborted: %w", err)
			}
			if j > res.K+1+maxExtraBatches {
				return fmt.Errorf("core: batch construction did not terminate after %d batches", j)
			}
			length := batchLength(j)
			batch, ok := buildBatch(tab, remaining, j, length, length, opts.Selection, sc)
			if !ok {
				continue
			}
			for _, it := range batch.selection {
				for _, idx := range it.taskIdxs {
					remaining[idx] = false
					left--
				}
			}
			appendBatchAssignments(inst, raw, &batch)
			res.Batches = append(res.Batches, batch)
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

// batchScratch is the batch construction's working space, reused from
// batch to batch of one run: the candidates of the batch being built, the
// tasks mergeable on one processor, and the task indices and durations
// that back every candidate's taskIdxs and durations.
type batchScratch struct {
	items    []batchItem
	smallSeq []int
	idxs     []int
	durs     []float64
	knap     knapsack
}

// newBatchScratch returns the working space of a run over n tasks on m
// processors, sized for the largest batch up front. Every task lands in
// at most one candidate of a batch, so no buffer outgrows n candidates or
// tasks, and the candidates' windows of idxs and durs stay valid.
func newBatchScratch(n, m int) *batchScratch {
	return &batchScratch{
		items:    make([]batchItem, 0, n),
		smallSeq: make([]int, 0, n),
		idxs:     make([]int, 0, n),
		durs:     make([]float64, 0, n),
		knap:     knapsack{best: make([]float64, m+1), take: make([]bool, n*(m+1))},
	}
}

// buildBatch selects the content of batch j. It returns false when no
// remaining task fits in the batch length.
func buildBatch(tab *moldable.Table, remaining []bool, j int, start, length float64, selection SelectionMode, sc *batchScratch) (Batch, bool) {
	inst := tab.Inst
	items, smallSeq := sc.items[:0], sc.smallSeq[:0]
	idxs, durs := sc.idxs[:0], sc.durs[:0]

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
		k := len(idxs)
		idxs, durs = append(idxs, i), append(durs, t.Time(alloc))
		items = append(items, batchItem{
			taskIdxs:  idxs[k : k+1 : k+1],
			alloc:     alloc,
			weight:    t.Weight,
			durations: durs[k : k+1 : k+1],
		})
	}

	// Merge the small sequential tasks by decreasing weight: stack them on a
	// single processor while the stack still fits in the batch. The stack
	// being filled is idxs[lo:].
	slices.SortStableFunc(smallSeq, func(a, b int) int {
		return cmp.Compare(inst.Tasks[b].Weight, inst.Tasks[a].Weight)
	})
	lo, stackWeight, stackLen := len(idxs), 0.0, 0.0
	flush := func() {
		if hi := len(idxs); hi > lo {
			items = append(items, batchItem{taskIdxs: idxs[lo:hi:hi], alloc: 1, weight: stackWeight, durations: durs[lo:hi:hi]})
			lo, stackWeight, stackLen = hi, 0, 0
		}
	}
	for _, i := range smallSeq {
		t := &inst.Tasks[i]
		if stackLen+t.SeqTime() > length+moldable.Eps {
			flush()
		}
		idxs, durs = append(idxs, i), append(durs, t.SeqTime())
		stackWeight += t.Weight
		stackLen += t.SeqTime()
	}
	flush()

	if len(items) == 0 {
		return Batch{}, false
	}
	selected := selectItems(&sc.knap, items, inst.M, selection)
	if len(selected) == 0 {
		return Batch{}, false
	}

	// The selected candidates move out of the scratch space: their task
	// indices and durations into two arrays of the batch's own.
	nTasks := 0
	for _, sel := range selected {
		nTasks += len(items[sel].taskIdxs)
	}
	ownIdxs, ownDurs := make([]int, 0, nTasks), make([]float64, 0, nTasks)
	batch := Batch{
		Index:     j,
		Start:     start,
		End:       start + length,
		Length:    length,
		TaskIDs:   make([]int, 0, nTasks),
		selection: make([]batchItem, len(selected)),
	}
	for k, sel := range selected {
		it := items[sel]
		batch.UsedProcessors += it.alloc
		batch.SelectedWeight += it.weight
		lo, hi := len(ownIdxs), len(ownIdxs)+len(it.taskIdxs)
		ownIdxs, ownDurs = append(ownIdxs, it.taskIdxs...), append(ownDurs, it.durations...)
		it.taskIdxs, it.durations = ownIdxs[lo:hi:hi], ownDurs[lo:hi:hi]
		batch.selection[k] = it
		for _, idx := range it.taskIdxs {
			batch.TaskIDs = append(batch.TaskIDs, inst.Tasks[idx].ID)
		}
		// A candidate of several tasks is a merged stack.
		if len(it.taskIdxs) > 1 {
			batch.MergedGroups = append(batch.MergedGroups, slices.Clone(batch.TaskIDs[len(batch.TaskIDs)-len(it.taskIdxs):]))
		}
	}
	sort.Ints(batch.TaskIDs)
	return batch, true
}

// selectItems returns the indices of the chosen items, in increasing
// order. The knapsack's result is its own buffer, valid until its next
// solve.
func selectItems(knap *knapsack, items []batchItem, capacity int, mode SelectionMode) []int {
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
		selected, _, err := knap.maxValue(items, capacity)
		if err != nil {
			return nil
		}
		return selected
	}
}

// appendBatchAssignments materializes the selected items of a batch into
// the raw schedule: every item starts at the batch boundary, merged tasks
// are stacked sequentially on their processor, and processors are packed
// from index 0. One array backs the processor lists of the whole batch,
// each a capacity-clipped window of it.
func appendBatchAssignments(inst *moldable.Instance, raw *schedule.Schedule, batch *Batch) {
	total := 0
	for _, it := range batch.selection {
		total += it.alloc * len(it.taskIdxs)
	}
	procs := make([]int, total)
	nextProc := 0
	for _, it := range batch.selection {
		offset := 0.0
		for k, idx := range it.taskIdxs {
			p := procs[:it.alloc:it.alloc]
			procs = procs[it.alloc:]
			for q := range p {
				p[q] = nextProc + q
			}
			t := &inst.Tasks[idx]
			raw.Add(schedule.Assignment{
				TaskID:   t.ID,
				Start:    batch.Start + offset,
				NProcs:   it.alloc,
				Procs:    p,
				Duration: it.durations[k],
			})
			offset += it.durations[k]
		}
		nextProc += it.alloc
	}
}
