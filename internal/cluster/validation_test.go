package cluster

import (
	"context"
	"fmt"
	"math"
	"testing"

	"bicriteria/internal/moldable"
	"bicriteria/internal/schedule"
	"bicriteria/internal/workload"
)

// stretched is a member returning DEMT's plan with every duration scaled
// by factor: an invalid plan, since no duration matches its task's time
// any more, that scores better than DEMT's below 1 and worse above.
func stretched(name string, factor float64) Algorithm {
	demt := DEMTAlgorithm(nil)
	return Algorithm{Name: name, Run: func(ctx context.Context, inst *moldable.Instance) (*schedule.Schedule, error) {
		s, err := demt.Run(ctx, inst)
		if err != nil {
			return nil, err
		}
		s = s.Clone()
		for i := range s.Assignments {
			s.Assignments[i].Duration *= factor
		}
		return s, nil
	}}
}

func validationInstance(t *testing.T) *moldable.Instance {
	t.Helper()
	inst, err := workload.Generate(workload.Config{Kind: workload.Mixed, M: 16, N: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// checkFailedByValidation asserts the failed shape of a candidate whose
// plan failed Schedule.Validate: NaN score, no criteria, and the
// validation error wrapped under the member's name.
func checkFailedByValidation(t *testing.T, inst *moldable.Instance, c Candidate, member Algorithm) {
	t.Helper()
	plan, err := member.Run(t.Context(), inst)
	if err != nil {
		t.Fatal(err)
	}
	verr := plan.Validate(inst, nil)
	if verr == nil {
		t.Fatalf("%s's plan is valid; the test needs an invalid one", member.Name)
	}
	want := fmt.Sprintf("cluster: algorithm %s: %v", member.Name, verr)
	if !math.IsNaN(c.Score) || c.Makespan != 0 || c.WeightedCompletion != 0 || c.Err == nil || c.Err.Error() != want {
		t.Fatalf("%s: candidate %+v, want NaN score and error %q", member.Name, c, want)
	}
}

// TestInvalidBestPlanLoses: a member whose invalid plan scores lowest is
// validated, fails and loses; the winner is the one the portfolio picks
// without it.
func TestInvalidBestPlanLoses(t *testing.T) {
	inst := validationInstance(t)
	obj := Objective{Kind: ObjectiveCombined, Alpha: 0.5}
	halved := stretched("halved", 0.5)
	honest := DefaultPortfolio(nil)
	_, _, wantWin, err := runPortfolio(t.Context(), &batchFacts{inst: inst}, honest, obj, nil, Racing{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	algos := append([]Algorithm{halved}, honest...)
	cands, scheds, win, err := runPortfolio(t.Context(), &batchFacts{inst: inst}, algos, obj, nil, Racing{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if win != wantWin+1 {
		t.Fatalf("winner %q, want %q", cands[win].Name, honest[wantWin].Name)
	}
	if scheds[0] != nil {
		t.Fatal("the failed candidate kept its plan")
	}
	checkFailedByValidation(t, inst, cands[0], halved)
}

// TestLosingPlanIsNotValidated: an invalid plan that scores worse than
// the winner is scored like any other and never checked.
func TestLosingPlanIsNotValidated(t *testing.T) {
	inst := validationInstance(t)
	doubled := stretched("doubled", 2)
	algos := []Algorithm{doubled, DEMTAlgorithm(nil)}
	cands, scheds, win, err := runPortfolio(t.Context(), &batchFacts{inst: inst}, algos, Objective{}, nil, Racing{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cands[win].Name != "demt" {
		t.Fatalf("winner %q, want demt", cands[win].Name)
	}
	c := cands[0]
	if c.Err != nil || math.IsNaN(c.Score) || scheds[0] == nil {
		t.Fatalf("the losing plan was checked: %+v", c)
	}
	if c.Score != scheds[0].Makespan() || c.Score <= cands[1].Score {
		t.Fatalf("losing candidate %+v, want its own makespan, above demt's %g", c, cands[1].Score)
	}
}

// TestRacedInvalidPlanDoesNotCut: under racing, an invalid plan that
// would qualify is checked before it may cut, so the next member runs
// and cuts instead.
func TestRacedInvalidPlanDoesNotCut(t *testing.T) {
	inst := validationInstance(t)
	halved := stretched("halved", 0.5)
	p := DefaultPortfolio(nil)
	algos := []Algorithm{halved, p[0], p[1]}
	cands, _, win, err := runPortfolio(t.Context(), &batchFacts{inst: inst}, algos, Objective{}, nil, Racing{Cutoff: 1e9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkFailedByValidation(t, inst, cands[0], halved)
	if cands[1].Cancelled || cands[win].Name != "demt" || !cands[2].Cancelled {
		t.Fatalf("candidates %+v, winner %q; want demt to run and cut gang", cands, cands[win].Name)
	}
}

// TestPortfolioBatchAllocs pins the allocations of one DefaultPortfolio
// batch: a 14-job mixed instance on 64 processors under the combined
// objective. Checking every candidate's plan, reallocating the two-shelf
// knapsack's tables per solve, a processor list per gang task, or building
// every shuffled order's schedule in DEMT's compaction each push the count
// past the pin.
func TestPortfolioBatchAllocs(t *testing.T) {
	inst, err := workload.Generate(workload.Config{Kind: workload.Mixed, M: 64, N: 14, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	algos := DefaultPortfolio(nil)
	obj := Objective{Kind: ObjectiveCombined, Alpha: 0.5}
	ctx := t.Context()
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, _, err := runPortfolio(ctx, &batchFacts{inst: inst}, algos, obj, nil, Racing{}, nil); err != nil {
			t.Fatal(err)
		}
	})
	const pinned = 184
	if allocs > pinned {
		t.Fatalf("one portfolio batch allocates %v times, want at most %d", allocs, pinned)
	}
}
