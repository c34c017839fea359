package baselines

import (
	"math"
	"testing"
	"testing/quick"

	"bicriteria/internal/dualapprox"
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
	})
}

func TestGangStructure(t *testing.T) {
	inst := testInstance()
	s, err := GangContext(t.Context(), moldable.NewTable(inst))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(inst, nil); err != nil {
		t.Fatalf("invalid schedule: %v", err)
	}
	// Every task uses its maximal allocation and tasks never overlap in time.
	for i := range s.Assignments {
		a := &s.Assignments[i]
		task := inst.Task(a.TaskID)
		if a.NProcs != task.MaxProcs() {
			t.Fatalf("task %d uses %d processors, want %d", a.TaskID, a.NProcs, task.MaxProcs())
		}
	}
	// Makespan equals the sum of gang durations.
	want := 0.0
	for i := range inst.Tasks {
		want += inst.Tasks[i].Time(inst.Tasks[i].MaxProcs())
	}
	if math.Abs(s.Makespan()-want) > 1e-9 {
		t.Fatalf("makespan = %g, want %g", s.Makespan(), want)
	}
	// Smith order: the first task should have the best weight/time ratio.
	first := s.Assignments[0]
	for i := range s.Assignments {
		if s.Assignments[i].Start == 0 {
			first = s.Assignments[i]
		}
	}
	bestRatio := -1.0
	var bestID int
	for i := range inst.Tasks {
		task := &inst.Tasks[i]
		ratio := task.Weight / task.Time(task.MaxProcs())
		if ratio > bestRatio {
			bestRatio = ratio
			bestID = task.ID
		}
	}
	if first.TaskID != bestID {
		t.Fatalf("gang should start with the best weight/time task %d, got %d", bestID, first.TaskID)
	}
}

func TestGangOptimalForPerfectlyMoldable(t *testing.T) {
	// With linear speedup and equal weights, gang by increasing area is
	// optimal for the minsum (paper §3.1); check it beats sequential.
	tasks := make([]moldable.Task, 6)
	for i := range tasks {
		tasks[i] = moldable.PerfectlyMoldable(i, 1, float64(4+2*i), 8)
	}
	inst := moldable.NewInstance(8, tasks)
	g, err := GangContext(t.Context(), moldable.NewTable(inst))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := SequentialContext(t.Context(), moldable.NewTable(inst))
	if err != nil {
		t.Fatal(err)
	}
	if g.WeightedCompletion(inst) > seq.WeightedCompletion(inst) {
		t.Fatalf("gang (%g) should beat sequential (%g) on perfectly moldable tasks",
			g.WeightedCompletion(inst), seq.WeightedCompletion(inst))
	}
}

func TestSequentialStructure(t *testing.T) {
	inst := testInstance()
	s, err := SequentialContext(t.Context(), moldable.NewTable(inst))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(inst, nil); err != nil {
		t.Fatalf("invalid schedule: %v", err)
	}
	for i := range s.Assignments {
		if s.Assignments[i].NProcs != 1 {
			t.Fatalf("sequential baseline must use one processor per task")
		}
	}
	// LPT: the longest task (ID 4, p=10) starts at time 0.
	if a := s.Assignment(4); a.Start != 0 {
		t.Fatalf("longest task should start first, got start %g", a.Start)
	}
}

func TestListGrahamVariantsValidAndBounded(t *testing.T) {
	inst := testInstance()
	res, err := dualapprox.TwoShelf(inst)
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range []ListOrder{ShelfOrder, WeightedLPT, SmallestAreaFirst} {
		s, err := ListGrahamWithAllotmentContext(t.Context(), inst, res, order)
		if err != nil {
			t.Fatalf("%v: %v", order, err)
		}
		if err := s.Validate(inst, nil); err != nil {
			t.Fatalf("%v: invalid schedule: %v", order, err)
		}
		// List scheduling with the dual-approx allotment should stay close
		// to the lower bound on this easy instance.
		if s.Makespan() > 3*res.LowerBound {
			t.Fatalf("%v: makespan %g too far from lower bound %g", order, s.Makespan(), res.LowerBound)
		}
	}
	// The standalone entry point computes the allotment itself.
	s, err := ListGrahamContext(t.Context(), inst, SmallestAreaFirst)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(inst, nil); err != nil {
		t.Fatalf("invalid schedule: %v", err)
	}
}

func TestListGrahamUnknownOrder(t *testing.T) {
	inst := testInstance()
	res, err := dualapprox.TwoShelf(inst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ListGrahamWithAllotmentContext(t.Context(), inst, res, ListOrder(42)); err == nil {
		t.Fatalf("unknown order must fail")
	}
	if _, err := ListGrahamWithAllotmentContext(t.Context(), inst, &dualapprox.Result{}, ShelfOrder); err == nil {
		t.Fatalf("mismatched allotment must fail")
	}
}

func TestBaselinesRejectInvalidInstances(t *testing.T) {
	bad := &moldable.Instance{M: 0}
	if _, err := GangContext(t.Context(), moldable.NewTable(bad)); err == nil {
		t.Fatalf("Gang must validate the instance")
	}
	if _, err := SequentialContext(t.Context(), moldable.NewTable(bad)); err == nil {
		t.Fatalf("Sequential must validate the instance")
	}
	if _, err := ListGrahamContext(t.Context(), bad, ShelfOrder); err == nil {
		t.Fatalf("ListGraham must validate the instance")
	}
}

func TestListOrderString(t *testing.T) {
	for _, o := range []ListOrder{ShelfOrder, WeightedLPT, SmallestAreaFirst, ListOrder(9)} {
		if o.String() == "" {
			t.Fatalf("empty name for order %d", int(o))
		}
	}
}

func TestPropertyAllBaselinesProduceValidSchedules(t *testing.T) {
	kinds := workload.Kinds()
	f := func(seed int64, kindRaw, nRaw uint8) bool {
		kind := kinds[int(kindRaw)%len(kinds)]
		n := 2 + int(nRaw)%25
		inst, err := workload.Generate(workload.Config{Kind: kind, M: 10, N: n, Seed: seed})
		if err != nil {
			return false
		}
		g, err := GangContext(t.Context(), moldable.NewTable(inst))
		if err != nil || g.Validate(inst, nil) != nil {
			return false
		}
		seq, err := SequentialContext(t.Context(), moldable.NewTable(inst))
		if err != nil || seq.Validate(inst, nil) != nil {
			return false
		}
		res, err := dualapprox.TwoShelf(inst)
		if err != nil {
			return false
		}
		for _, order := range []ListOrder{ShelfOrder, WeightedLPT, SmallestAreaFirst} {
			s, err := ListGrahamWithAllotmentContext(t.Context(), inst, res, order)
			if err != nil || s.Validate(inst, nil) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
