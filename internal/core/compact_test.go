package core

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"bicriteria/internal/listsched"
	"bicriteria/internal/moldable"
	"bicriteria/internal/schedule"
	"bicriteria/internal/workload"
)

// referenceShuffleCompaction is the shuffle compaction built the plain
// way: every candidate order is listed by GrahamContext into a full
// schedule, scored by the schedule's own WeightedCompletion and Makespan,
// and the best schedule is kept. Its shuffles draw from math/rand's own
// seeded source.
func referenceShuffleCompaction(t *testing.T, inst *moldable.Instance, res *Result, opts Options) (*schedule.Schedule, int) {
	t.Helper()
	segments := make([][]listsched.Item, len(res.Batches))
	for b := range res.Batches {
		for _, it := range res.Batches[b].selection {
			for k, idx := range it.taskIdxs {
				segments[b] = append(segments[b], listsched.Item{TaskID: inst.Tasks[idx].ID, NProcs: it.alloc, Duration: it.durations[k]})
			}
		}
		slices.SortStableFunc(segments[b], func(a, b listsched.Item) int { return cmp.Compare(b.Duration, a.Duration) })
	}
	list := func(order []int) []listsched.Item {
		var items []listsched.Item
		for _, b := range order {
			items = append(items, segments[b]...)
		}
		return items
	}
	evaluate := func(items []listsched.Item) (*schedule.Schedule, float64, float64) {
		s, err := listsched.GrahamContext(t.Context(), inst.M, items)
		if err != nil {
			t.Fatal(err)
		}
		return s, s.WeightedCompletion(inst), s.Makespan()
	}
	order := make([]int, len(segments))
	for i := range order {
		order[i] = i
	}
	best, bestMinsum, bestCmax := evaluate(list(order))
	rng := rand.New(rand.NewSource(opts.Seed))
	for s := 0; s < opts.Shuffles; s++ {
		for i := range order {
			order[i] = i
		}
		if n := len(order); n >= 2 {
			for swaps := 1 + rng.Intn(n); swaps > 0; swaps-- {
				i := rng.Intn(n - 1)
				order[i], order[i+1] = order[i+1], order[i]
			}
		}
		items := list(order)
		pos := 0
		for _, b := range order {
			seg := items[pos : pos+len(segments[b])]
			rng.Shuffle(len(seg), func(i, j int) { seg[i], seg[j] = seg[j], seg[i] })
			pos += len(seg)
		}
		cand, minsum, cmax := evaluate(items)
		if minsum < bestMinsum-moldable.Eps || (minsum < bestMinsum+moldable.Eps && cmax < bestCmax-moldable.Eps) {
			best, bestMinsum, bestCmax = cand, minsum, cmax
		}
	}
	return best, opts.Shuffles + 1
}

// TestShuffleCompactionMatchesReference requires the compaction that
// scores orders from start times and sweeps only the winner to return the
// reference's schedule, built candidate by candidate, on random monotone
// instances and on every workload family, across seeds and shuffle
// counts.
func TestShuffleCompactionMatchesReference(t *testing.T) {
	var insts []*moldable.Instance
	r := rand.New(rand.NewSource(52))
	for range 30 {
		insts = append(insts, randomMonotoneInstance(r))
	}
	for _, kind := range workload.Kinds() {
		inst, err := workload.Generate(workload.Config{Kind: kind, M: 64, N: 120, Seed: 52})
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, inst)
	}
	for i, inst := range insts {
		opts := (&Options{Seed: int64(1 + i%5), Shuffles: 1 + i%12, Compaction: CompactionList}).withDefaults()
		res, err := run(t.Context(), inst, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, tried, err := shuffleCompaction(t.Context(), inst, res, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, wantTried := referenceShuffleCompaction(t, inst, res, opts)
		if tried != wantTried || !reflect.DeepEqual(got, want) {
			t.Fatalf("instance %d (m=%d, n=%d, %d shuffles): %d orders tried, reference %d; schedules equal: %v",
				i, inst.M, inst.N(), opts.Shuffles, tried, wantTried, reflect.DeepEqual(got, want))
		}
	}
}

// TestScheduleAllocs pins the allocations of one default ScheduleContext
// on a mixed instance of 400 tasks on 200 processors. Building every
// shuffled order's schedule instead of the winner's alone, a knapsack
// table per batch, two one-element slices per candidate task, or a
// two-shelf schedule in step 1, which reads only its makespan, each push
// the count past the pin.
func TestScheduleAllocs(t *testing.T) {
	inst, err := workload.Generate(workload.Config{Kind: workload.Mixed, M: 200, N: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ctx := t.Context()
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := ScheduleContext(ctx, inst, nil); err != nil {
			t.Fatal(err)
		}
	})
	const pinned = 163
	if allocs > pinned {
		t.Fatalf("one schedule allocates %v times, want at most %d", allocs, pinned)
	}
}
