package exact

import (
	"math"
	"testing"
	"testing/quick"

	"bicriteria/internal/baselines"
	"bicriteria/internal/core"
	"bicriteria/internal/lowerbound"
	"bicriteria/internal/moldable"
	"bicriteria/internal/workload"
)

func TestObjectiveString(t *testing.T) {
	if Makespan.String() == "" || WeightedCompletion.String() == "" || Objective(9).String() == "" {
		t.Fatalf("objective names must not be empty")
	}
}

func TestSolveRejectsBadInput(t *testing.T) {
	if _, err := Solve(&moldable.Instance{M: 0}, Makespan, nil); err == nil {
		t.Fatalf("invalid instance must fail")
	}
	inst := moldable.NewInstance(2, []moldable.Task{moldable.Sequential(0, 1, 1)})
	if _, err := Solve(inst, Objective(9), nil); err == nil {
		t.Fatalf("unknown objective must fail")
	}
	big := make([]moldable.Task, 12)
	for i := range big {
		big[i] = moldable.Sequential(i, 1, 1)
	}
	if _, err := Solve(moldable.NewInstance(2, big), Makespan, nil); err == nil {
		t.Fatalf("too many tasks must fail")
	}
	if _, err := Solve(inst, Makespan, &Limits{MaxSchedules: 0}); err != nil {
		t.Fatalf("zero MaxSchedules should fall back to the default: %v", err)
	}
}

func TestSolveKnownOptimalMakespan(t *testing.T) {
	// Three sequential unit-ish tasks on 2 processors: optimal makespan is
	// achieved by pairing the two short ones.
	inst := moldable.NewInstance(2, []moldable.Task{
		moldable.Sequential(0, 1, 4),
		moldable.Sequential(1, 1, 2),
		moldable.Sequential(2, 1, 2),
	})
	res, err := Solve(inst, Makespan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-4) > 1e-9 {
		t.Fatalf("optimal makespan = %g, want 4", res.Value)
	}
	if err := res.Schedule.Validate(inst, nil); err != nil {
		t.Fatalf("optimal schedule invalid: %v", err)
	}
}

func TestSolveKnownOptimalMinsumSingleProcessor(t *testing.T) {
	// On one processor the optimum is Smith's rule: known closed form.
	inst := moldable.NewInstance(1, []moldable.Task{
		moldable.Sequential(0, 3, 2), // ratio 2/3
		moldable.Sequential(1, 1, 4), // ratio 4
		moldable.Sequential(2, 2, 1), // ratio 1/2
	})
	res, err := Solve(inst, WeightedCompletion, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Smith order 2,0,1: completions 1,3,7 -> 2*1+3*3+1*7 = 18.
	if math.Abs(res.Value-18) > 1e-9 {
		t.Fatalf("optimal minsum = %g, want 18", res.Value)
	}
}

func TestSolveUsesMoldability(t *testing.T) {
	// A single perfectly moldable task: the optimum uses all processors.
	inst := moldable.NewInstance(4, []moldable.Task{moldable.PerfectlyMoldable(0, 1, 8, 4)})
	res, err := Solve(inst, Makespan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-2) > 1e-9 {
		t.Fatalf("optimal makespan = %g, want 2", res.Value)
	}
	if res.Schedule.Assignments[0].NProcs != 4 {
		t.Fatalf("optimum should use all 4 processors")
	}
}

func TestLowerBoundsNeverExceedOptimum(t *testing.T) {
	kinds := workload.Kinds()
	for seed := int64(0); seed < 6; seed++ {
		kind := kinds[int(seed)%len(kinds)]
		inst, err := workload.Generate(workload.Config{Kind: kind, M: 4, N: 5, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		optCmax, err := Solve(inst, Makespan, nil)
		if err != nil {
			t.Fatal(err)
		}
		optMinsum, err := Solve(inst, WeightedCompletion, nil)
		if err != nil {
			t.Fatal(err)
		}
		if lb := lowerbound.Makespan(inst); lb > optCmax.Value+1e-6 {
			t.Fatalf("seed %d: makespan lower bound %g exceeds the optimum %g", seed, lb, optCmax.Value)
		}
		if lb := lowerbound.MinsumSquashedArea(inst); lb > optMinsum.Value+1e-6 {
			t.Fatalf("seed %d: squashed-area bound %g exceeds the optimum %g", seed, lb, optMinsum.Value)
		}
		lpBound, err := lowerbound.MinsumLP(inst, nil)
		if err != nil {
			t.Fatal(err)
		}
		if lpBound.Value > optMinsum.Value+1e-6 {
			t.Fatalf("seed %d: LP bound %g exceeds the optimum %g", seed, lpBound.Value, optMinsum.Value)
		}
	}
}

func TestHeuristicsNeverBeatOptimum(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		inst, err := workload.Generate(workload.Config{Kind: workload.Cirne, M: 4, N: 5, Seed: 100 + seed})
		if err != nil {
			t.Fatal(err)
		}
		optCmax, err := Solve(inst, Makespan, nil)
		if err != nil {
			t.Fatal(err)
		}
		optMinsum, err := Solve(inst, WeightedCompletion, nil)
		if err != nil {
			t.Fatal(err)
		}

		demt, err := core.ScheduleContext(t.Context(), inst, nil)
		if err != nil {
			t.Fatal(err)
		}
		if demt.Schedule.Makespan() < optCmax.Value-1e-6 {
			t.Fatalf("seed %d: DEMT makespan %g beats the proven optimum %g", seed, demt.Schedule.Makespan(), optCmax.Value)
		}
		if demt.Schedule.WeightedCompletion(inst) < optMinsum.Value-1e-6 {
			t.Fatalf("seed %d: DEMT minsum beats the proven optimum", seed)
		}

		gang, err := baselines.GangContext(t.Context(), moldable.NewTable(inst))
		if err != nil {
			t.Fatal(err)
		}
		if gang.Makespan() < optCmax.Value-1e-6 {
			t.Fatalf("seed %d: Gang makespan beats the proven optimum", seed)
		}
		seq, err := baselines.SequentialContext(t.Context(), moldable.NewTable(inst))
		if err != nil {
			t.Fatal(err)
		}
		if seq.WeightedCompletion(inst) < optMinsum.Value-1e-6 {
			t.Fatalf("seed %d: Sequential minsum beats the proven optimum", seed)
		}
	}
}

func TestPropertyOptimalSchedulesAreValidAndDominated(t *testing.T) {
	f := func(seed int64) bool {
		inst, err := workload.Generate(workload.Config{Kind: workload.Mixed, M: 3, N: 4, Seed: seed})
		if err != nil {
			return false
		}
		res, err := Solve(inst, WeightedCompletion, nil)
		if err != nil {
			return false
		}
		if err := res.Schedule.Validate(inst, nil); err != nil {
			return false
		}
		// The optimum value matches the schedule's actual criterion.
		if math.Abs(res.Schedule.WeightedCompletion(inst)-res.Value) > 1e-6 {
			return false
		}
		return res.Evaluated > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
