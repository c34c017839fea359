package lowerbound

import (
	"math"
	"testing"
	"testing/quick"

	"bicriteria/internal/listsched"
	"bicriteria/internal/lp"
	"bicriteria/internal/moldable"
	"bicriteria/internal/schedule"
	"bicriteria/internal/workload"
)

func smallInstance() *moldable.Instance {
	return moldable.NewInstance(4, []moldable.Task{
		{ID: 0, Weight: 2, Times: []float64{8, 4.5, 3.2, 2.5}},
		{ID: 1, Weight: 1, Times: []float64{6, 3.5, 2.6, 2.2}},
		{ID: 2, Weight: 3, Times: []float64{2, 1.2}},
		{ID: 3, Weight: 1, Times: []float64{1.5}},
	})
}

// anyFeasibleSchedule builds a simple feasible schedule (sequential
// allotment, Graham list in weight-density order) whose criteria must upper
// bound the lower bounds.
func anyFeasibleSchedule(t *testing.T, inst *moldable.Instance) *schedule.Schedule {
	t.Helper()
	items := make([]listsched.Item, inst.N())
	for i := range inst.Tasks {
		items[i] = listsched.Item{TaskID: inst.Tasks[i].ID, NProcs: 1, Duration: inst.Tasks[i].SeqTime()}
	}
	s, err := listsched.Graham(inst.M, items)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(inst, nil); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMakespanBoundBelowFeasibleSchedules(t *testing.T) {
	inst := smallInstance()
	lb := Makespan(inst)
	s := anyFeasibleSchedule(t, inst)
	if lb > s.Makespan()+1e-9 {
		t.Fatalf("makespan lower bound %g exceeds a feasible makespan %g", lb, s.Makespan())
	}
	if lb <= 0 {
		t.Fatalf("lower bound should be positive")
	}
}

func TestIntervalSetCoversHorizonAndDoubles(t *testing.T) {
	inst := smallInstance()
	cmax := Makespan(inst)
	bounds := intervalSet(inst, cmax)
	if bounds[0] != 0 {
		t.Fatalf("first boundary must be 0, got %g", bounds[0])
	}
	horizon := 0.0
	for i := range inst.Tasks {
		p, _ := inst.Tasks[i].MinTime()
		horizon += p
	}
	if bounds[len(bounds)-1] < horizon-1e-9 {
		t.Fatalf("last boundary %g below horizon %g", bounds[len(bounds)-1], horizon)
	}
	for i := 2; i < len(bounds); i++ {
		ratio := bounds[i] / bounds[i-1]
		if math.Abs(ratio-2) > 1e-6 {
			t.Fatalf("boundaries must double: b[%d]=%g b[%d]=%g", i-1, bounds[i-1], i, bounds[i])
		}
	}
	// tmin must fall inside the first non-degenerate interval.
	tmin := inst.MinProcessingTime()
	if bounds[1] < tmin-1e-9 || bounds[1] > 2*tmin+1e-9 {
		t.Fatalf("first positive boundary %g should be within [tmin, 2*tmin] = [%g, %g]", bounds[1], tmin, 2*tmin)
	}
}

func TestMinsumSquashedAreaBasics(t *testing.T) {
	inst := smallInstance()
	lb := MinsumSquashedArea(inst)
	if lb <= 0 {
		t.Fatalf("squashed-area bound must be positive")
	}
	// Per-task component: never below sum w_i * pmin_i.
	perTask := 0.0
	for i := range inst.Tasks {
		p, _ := inst.Tasks[i].MinTime()
		perTask += inst.Tasks[i].Weight * p
	}
	if lb < perTask-1e-9 {
		t.Fatalf("bound %g below per-task bound %g", lb, perTask)
	}
	s := anyFeasibleSchedule(t, inst)
	if lb > s.WeightedCompletion(inst)+1e-9 {
		t.Fatalf("bound %g exceeds a feasible minsum %g", lb, s.WeightedCompletion(inst))
	}
}

func TestMinsumSquashedAreaSingleProcessorExact(t *testing.T) {
	// On a single processor with sequential tasks the squashed-area bound
	// equals the Smith-rule optimum.
	inst := moldable.NewInstance(1, []moldable.Task{
		moldable.Sequential(0, 3, 2), // ratio 2/3
		moldable.Sequential(1, 1, 4), // ratio 4
		moldable.Sequential(2, 2, 1), // ratio 1/2
	})
	// Smith order: task2 (1), task0 (2), task1 (4):
	// completions 1, 3, 7 -> 2*1 + 3*3 + 1*7 = 18.
	lb := MinsumSquashedArea(inst)
	if math.Abs(lb-18) > 1e-9 {
		t.Fatalf("bound = %g, want 18", lb)
	}
}

func TestMinsumLPBasicProperties(t *testing.T) {
	inst := smallInstance()
	bound, err := MinsumLP(inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bound.Status != lp.Optimal {
		t.Fatalf("LP status = %v", bound.Status)
	}
	if bound.Value <= 0 {
		t.Fatalf("LP bound must be positive")
	}
	s := anyFeasibleSchedule(t, inst)
	if bound.Value > s.WeightedCompletion(inst)+1e-6 {
		t.Fatalf("LP bound %g exceeds a feasible minsum %g", bound.Value, s.WeightedCompletion(inst))
	}
	// The LP bound dominates (or matches) the squashed-area bound because
	// MinsumLP takes the max of the two.
	if bound.Value < MinsumSquashedArea(inst)-1e-9 {
		t.Fatalf("LP bound %g below squashed-area bound %g", bound.Value, MinsumSquashedArea(inst))
	}
}

func TestMinsumLPWithExplicitCmax(t *testing.T) {
	inst := smallInstance()
	cmax := Makespan(inst) * 1.5
	bound, err := MinsumLP(inst, &MinsumOptions{CmaxEstimate: cmax})
	if err != nil {
		t.Fatal(err)
	}
	if bound.Value <= 0 {
		t.Fatalf("bound must be positive")
	}
}

func TestMinsumLPRejectsInvalidInstance(t *testing.T) {
	if _, err := MinsumLP(&moldable.Instance{M: 0}, nil); err == nil {
		t.Fatalf("invalid instance must fail")
	}
}

func TestPropertyLowerBoundsBelowFeasibleSchedules(t *testing.T) {
	kinds := workload.Kinds()
	f := func(seed int64, kindRaw, nRaw uint8) bool {
		kind := kinds[int(kindRaw)%len(kinds)]
		n := 3 + int(nRaw)%20
		inst, err := workload.Generate(workload.Config{Kind: kind, M: 12, N: n, Seed: seed})
		if err != nil {
			return false
		}
		// Feasible schedule: every task sequential, Graham list.
		items := make([]listsched.Item, inst.N())
		for i := range inst.Tasks {
			items[i] = listsched.Item{TaskID: inst.Tasks[i].ID, NProcs: 1, Duration: inst.Tasks[i].SeqTime()}
		}
		s, err := listsched.Graham(inst.M, items)
		if err != nil {
			return false
		}
		if Makespan(inst) > s.Makespan()+1e-6 {
			return false
		}
		if MinsumSquashedArea(inst) > s.WeightedCompletion(inst)+1e-6 {
			return false
		}
		bound, err := MinsumLP(inst, nil)
		if err != nil {
			return false
		}
		return bound.Value <= s.WeightedCompletion(inst)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
