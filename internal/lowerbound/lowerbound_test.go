package lowerbound

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"bicriteria/internal/listsched"
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
	if bound.Status != Optimal {
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

func TestMinsumLPRejectsBadCmaxEstimate(t *testing.T) {
	for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		_, err := MinsumLP(smallInstance(), &MinsumOptions{CmaxEstimate: c})
		if err == nil || !strings.Contains(err.Error(), "CmaxEstimate") {
			t.Errorf("CmaxEstimate %g: err = %v, want an error naming CmaxEstimate", c, err)
		}
	}
}

func TestStatusStrings(t *testing.T) {
	for s, want := range map[Status]string{
		Optimal:        "optimal",
		Infeasible:     "infeasible",
		Unbounded:      "unbounded",
		IterationLimit: "iteration-limit",
		Status(9):      "Status(9)",
	} {
		if got := s.String(); got != want {
			t.Errorf("Status(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

// TestMinsumLPInfeasibleOnTruncatedBoundaries solves the LP on boundaries
// that stop short of the horizon: either the area rows cannot hold every
// task, or some task fits in no interval at all.
func TestMinsumLPInfeasibleOnTruncatedBoundaries(t *testing.T) {
	two := moldable.NewInstance(1, []moldable.Task{
		moldable.Sequential(0, 1, 3),
		moldable.Sequential(1, 1, 3),
	})
	if status, _, _ := newSimplex(two, []float64{0, 4}).solve(); status != Infeasible {
		t.Errorf("two tasks of length 3 within [0, 4] on one processor: status %v, want infeasible", status)
	}
	if status, _, _ := newSimplex(two, []float64{0, 2}).solve(); status != Infeasible {
		t.Errorf("tasks of length 3 within [0, 2]: status %v, want infeasible", status)
	}
	if status, _, _ := newSimplex(two, []float64{0, 3, 6}).solve(); status != Optimal {
		t.Errorf("two tasks of length 3 within [0, 6]: status %v, want optimal", status)
	}
}

func TestMinsumLPIterationLimit(t *testing.T) {
	inst := smallInstance()
	s := newSimplex(inst, intervalSet(inst, Makespan(inst)))
	if want := 50 * (len(s.a) + len(s.obj)); s.maxIter != want {
		t.Fatalf("default pivot limit %d, want 50*(rows+cols) = %d", s.maxIter, want)
	}
	s.maxIter = 2
	if status, iters, _ := s.solve(); status != IterationLimit || iters != 2 {
		t.Fatalf("limit 2: status %v after %d pivots, want iteration-limit after 2", status, iters)
	}
}

// TestMinsumLPSolutionIsFeasible checks the optimal point itself against
// an untouched copy of the tableau: x >= 0, every coverage row at least 1,
// every area row within its capacity, and the reported value its cost.
func TestMinsumLPSolutionIsFeasible(t *testing.T) {
	for _, kind := range workload.Kinds() {
		inst, err := workload.Generate(workload.Config{Kind: kind, M: 16, N: 60, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		boundaries := intervalSet(inst, Makespan(inst))
		orig, s := newSimplex(inst, boundaries), newSimplex(inst, boundaries)
		status, _, value := s.solve()
		if status != Optimal {
			t.Fatalf("%s: status %v", kind, status)
		}
		x := s.primal()
		cost := 0.0
		for j, v := range x {
			if v < 0 {
				t.Fatalf("%s: x[%d] = %g < 0", kind, j, v)
			}
			cost += orig.cost[j] * v
		}
		if math.Abs(cost-value) > 1e-9*value {
			t.Fatalf("%s: value %g, cost of the point %g", kind, value, cost)
		}
		for i, row := range orig.a {
			lhs := 0.0
			for j, v := range row[:orig.nx] {
				lhs += v * x[j]
			}
			if i < inst.N() && lhs < 1-1e-6 {
				t.Fatalf("%s: task %d covered %g < 1", kind, i, lhs)
			}
			if i >= inst.N() && lhs > orig.b[i]+1e-6*orig.b[i] {
				t.Fatalf("%s: area row %d holds %g > %g", kind, i-inst.N(), lhs, orig.b[i])
			}
		}
	}
}
