package core

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"bicriteria/internal/lowerbound"
	"bicriteria/internal/moldable"
	"bicriteria/internal/workload"
)

func testInstance() *moldable.Instance {
	return moldable.NewInstance(4, []moldable.Task{
		{ID: 0, Weight: 2, Times: []float64{8, 4.5, 3.2, 2.5}},
		{ID: 1, Weight: 1, Times: []float64{6, 3.5, 2.6, 2.2}},
		{ID: 2, Weight: 3, Times: []float64{2, 1.2}},
		{ID: 3, Weight: 1, Times: []float64{1.5}},
		{ID: 4, Weight: 4, Times: []float64{10, 5.5, 4, 3.1}},
		{ID: 5, Weight: 2, Times: []float64{0.8}},
		{ID: 6, Weight: 5, Times: []float64{0.5}},
	})
}

func TestScheduleBasicProperties(t *testing.T) {
	inst := testInstance()
	res, err := ScheduleContext(t.Context(), inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(inst, nil); err != nil {
		t.Fatalf("final schedule invalid: %v\n%s", err, res.Schedule.String())
	}
	if err := res.Raw.Validate(inst, nil); err != nil {
		t.Fatalf("raw batch schedule invalid: %v\n%s", err, res.Raw.String())
	}
	if res.CmaxEstimate <= 0 || res.TMin <= 0 {
		t.Fatalf("missing estimate or tmin: %+v", res)
	}
	if res.K < 0 {
		t.Fatalf("negative K")
	}
	if lb := lowerbound.Makespan(inst); res.Schedule.Makespan() < lb-1e-6 {
		t.Fatalf("makespan %g below the lower bound %g", res.Schedule.Makespan(), lb)
	}
	// Compaction must not hurt: final makespan no worse than the raw batch
	// schedule's.
	if res.Schedule.Makespan() > res.Raw.Makespan()+1e-6 {
		t.Fatalf("compaction increased the makespan: %g > %g", res.Schedule.Makespan(), res.Raw.Makespan())
	}
	if res.Schedule.WeightedCompletion(inst) > res.Raw.WeightedCompletion(inst)+1e-6 {
		t.Fatalf("compaction increased the minsum")
	}
	if res.ShufflesTried < 1 {
		t.Fatalf("shuffle optimization should evaluate at least the identity order")
	}
}

func TestBatchesStructure(t *testing.T) {
	inst := testInstance()
	res, err := ScheduleContext(t.Context(), inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) == 0 {
		t.Fatalf("no batches recorded")
	}
	seen := make(map[int]bool)
	for bi, b := range res.Batches {
		if b.Length <= 0 {
			t.Fatalf("batch %d has non-positive length", bi)
		}
		if math.Abs(b.End-b.Start-b.Length) > 1e-9 {
			t.Fatalf("batch %d window inconsistent", bi)
		}
		if b.UsedProcessors > inst.M {
			t.Fatalf("batch %d uses %d processors, machine has %d", bi, b.UsedProcessors, inst.M)
		}
		if bi > 0 && b.Length < res.Batches[bi-1].Length {
			t.Fatalf("batch lengths must be non-decreasing")
		}
		for _, id := range b.TaskIDs {
			if seen[id] {
				t.Fatalf("task %d selected in two batches", id)
			}
			seen[id] = true
		}
		// Every task in the batch fits in the batch length under its
		// allotted processing time (check via the raw schedule).
		for _, id := range b.TaskIDs {
			a := res.Raw.Assignment(id)
			if a == nil {
				t.Fatalf("task %d missing from the raw schedule", id)
			}
			if a.End() > b.End+1e-6 {
				t.Fatalf("task %d ends at %g after its batch window end %g", id, a.End(), b.End)
			}
			if a.Start < b.Start-1e-9 {
				t.Fatalf("task %d starts before its batch window", id)
			}
		}
	}
	if len(seen) != inst.N() {
		t.Fatalf("batches cover %d tasks, want %d", len(seen), inst.N())
	}
}

func TestMergedGroupsAreSmallSequentialTasks(t *testing.T) {
	// Many tiny sequential tasks and one big task on a small machine: the
	// merge step must stack the tiny tasks.
	tasks := []moldable.Task{
		{ID: 0, Weight: 1, Times: []float64{8, 4.2, 3, 2.4}},
	}
	for i := 1; i <= 12; i++ {
		tasks = append(tasks, moldable.Sequential(i, float64(i%4+1), 0.4))
	}
	inst := moldable.NewInstance(4, tasks)
	res, err := ScheduleContext(t.Context(), inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(inst, nil); err != nil {
		t.Fatalf("invalid schedule: %v", err)
	}
	merged := 0
	for _, b := range res.Batches {
		for _, g := range b.MergedGroups {
			if len(g) < 2 {
				t.Fatalf("merged group with fewer than two tasks: %v", g)
			}
			merged += len(g)
		}
	}
	if merged == 0 {
		t.Fatalf("expected at least one merged group of small sequential tasks")
	}
}

func TestCompactionModes(t *testing.T) {
	inst := testInstance()
	var prevMinsum float64
	for i, mode := range []CompactionMode{CompactionNone, CompactionEarliestStart, CompactionList, CompactionListShuffle} {
		res, err := ScheduleContext(t.Context(), inst, &Options{Compaction: mode, Seed: 3})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if err := res.Schedule.Validate(inst, nil); err != nil {
			t.Fatalf("%v: invalid schedule: %v", mode, err)
		}
		minsum := res.Schedule.WeightedCompletion(inst)
		if i > 0 && minsum > prevMinsum+1e-6 && mode != CompactionEarliestStart {
			// The list-based modes should not be worse than no compaction.
			if mode == CompactionList || mode == CompactionListShuffle {
				if noCompact, _ := ScheduleContext(t.Context(), inst, &Options{Compaction: CompactionNone}); minsum > noCompact.Schedule.WeightedCompletion(inst)+1e-6 {
					t.Fatalf("%v: compaction made the minsum worse", mode)
				}
			}
		}
		prevMinsum = minsum
	}
}

func TestSelectionModes(t *testing.T) {
	inst := testInstance()
	kn, err := ScheduleContext(t.Context(), inst, &Options{Selection: SelectionKnapsack})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := ScheduleContext(t.Context(), inst, &Options{Selection: SelectionGreedy})
	if err != nil {
		t.Fatal(err)
	}
	if err := gr.Schedule.Validate(inst, nil); err != nil {
		t.Fatalf("greedy selection produced an invalid schedule: %v", err)
	}
	// Knapsack selection maximizes the weight packed in each batch, so the
	// first batch's selected weight can never be smaller than greedy's.
	if len(kn.Batches) > 0 && len(gr.Batches) > 0 &&
		kn.Batches[0].Index == gr.Batches[0].Index &&
		kn.Batches[0].SelectedWeight < gr.Batches[0].SelectedWeight-1e-9 {
		t.Fatalf("knapsack first-batch weight %g below greedy %g",
			kn.Batches[0].SelectedWeight, gr.Batches[0].SelectedWeight)
	}
}

func TestExplicitCmaxEstimate(t *testing.T) {
	inst := testInstance()
	res, err := ScheduleContext(t.Context(), inst, &Options{CmaxEstimate: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.CmaxEstimate != 20 {
		t.Fatalf("CmaxEstimate = %g, want 20", res.CmaxEstimate)
	}
	if err := res.Schedule.Validate(inst, nil); err != nil {
		t.Fatalf("invalid schedule: %v", err)
	}
}

// TestTimingReportsEveryPhaseInOrder checks that the Timing hook covers a
// run: the four phases, once each, in execution order, with or without a
// preset CmaxEstimate, and nothing for a run that fails validation.
func TestTimingReportsEveryPhaseInOrder(t *testing.T) {
	for _, cmax := range []float64{0, 20} {
		var phases []string
		opts := &Options{CmaxEstimate: cmax, Timing: func(phase string, seconds float64) {
			if seconds < 0 {
				t.Errorf("phase %s: negative time %g", phase, seconds)
			}
			phases = append(phases, phase)
		}}
		if _, err := ScheduleContext(t.Context(), testInstance(), opts); err != nil {
			t.Fatal(err)
		}
		want := []string{"validate", "dualapprox", "knapsack", "compact"}
		if !slices.Equal(phases, want) {
			t.Fatalf("CmaxEstimate %g: phases %v, want %v", cmax, phases, want)
		}
	}
	var phases []string
	opts := &Options{Timing: func(phase string, _ float64) { phases = append(phases, phase) }}
	if _, err := ScheduleContext(t.Context(), &moldable.Instance{M: 0}, opts); err == nil || len(phases) != 0 {
		t.Fatalf("invalid instance: err %v, phases %v; want an error and no phase", err, phases)
	}
}

// TestSchedulerReuse runs one Options value across several instances: every
// run is valid and none changes the caller's options.
func TestSchedulerReuse(t *testing.T) {
	opts := &Options{Shuffles: 2, Seed: 7}
	for seed := int64(0); seed < 3; seed++ {
		inst, err := workload.Generate(workload.Config{Kind: workload.Mixed, M: 16, N: 20, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := ScheduleContext(t.Context(), inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Schedule.Validate(inst, nil); err != nil {
			t.Fatalf("invalid schedule: %v", err)
		}
		if !reflect.DeepEqual(*opts, Options{Shuffles: 2, Seed: 7}) {
			t.Fatalf("run changed the options: %+v", *opts)
		}
	}
}

func TestDeterministicForFixedSeed(t *testing.T) {
	inst := testInstance()
	a, err := ScheduleContext(t.Context(), inst, &Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ScheduleContext(t.Context(), inst, &Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Schedule.Makespan() != b.Schedule.Makespan() ||
		a.Schedule.WeightedCompletion(inst) != b.Schedule.WeightedCompletion(inst) {
		t.Fatalf("same seed should give identical results")
	}
}

func TestRejectsInvalidInstance(t *testing.T) {
	if _, err := ScheduleContext(t.Context(), &moldable.Instance{M: 0}, nil); err == nil {
		t.Fatalf("invalid instance must fail")
	}
}

func TestEnumStrings(t *testing.T) {
	for _, c := range []CompactionMode{CompactionListShuffle, CompactionList, CompactionEarliestStart, CompactionNone, CompactionMode(9)} {
		if c.String() == "" {
			t.Fatalf("empty compaction name")
		}
	}
	for _, s := range []SelectionMode{SelectionKnapsack, SelectionGreedy, SelectionMode(9)} {
		if s.String() == "" {
			t.Fatalf("empty selection name")
		}
	}
}

func TestSingleTaskAndSingleProcessor(t *testing.T) {
	inst := moldable.NewInstance(1, []moldable.Task{moldable.Sequential(0, 1, 2.5)})
	res, err := ScheduleContext(t.Context(), inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(inst, nil); err != nil {
		t.Fatalf("invalid schedule: %v", err)
	}
	if math.Abs(res.Schedule.Makespan()-2.5) > 1e-9 {
		t.Fatalf("makespan = %g, want 2.5", res.Schedule.Makespan())
	}
	if res.Schedule.Assignment(0).Start != 0 {
		t.Fatalf("single task should start at 0 after compaction")
	}
}

func TestPropertyValidSchedulesAndReasonableRatios(t *testing.T) {
	kinds := workload.Kinds()
	f := func(seed int64, kindRaw, nRaw uint8) bool {
		kind := kinds[int(kindRaw)%len(kinds)]
		n := 3 + int(nRaw)%30
		inst, err := workload.Generate(workload.Config{Kind: kind, M: 20, N: n, Seed: seed})
		if err != nil {
			return false
		}
		res, err := ScheduleContext(t.Context(), inst, &Options{Shuffles: 3, Seed: seed})
		if err != nil {
			return false
		}
		if err := res.Schedule.Validate(inst, nil); err != nil {
			return false
		}
		// Both criteria must dominate their lower bounds; the makespan
		// should stay within a loose factor of its bound on these benign
		// workloads (the paper observes <= ~2).
		cmax := res.Schedule.Makespan()
		cmaxLB := lowerbound.Makespan(inst)
		if cmax < cmaxLB-1e-6 || cmax > 4*cmaxLB+1e-6 {
			return false
		}
		minsumLB := lowerbound.MinsumSquashedArea(inst)
		return res.Schedule.WeightedCompletion(inst) >= minsumLB-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
