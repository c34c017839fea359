package cluster

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bicriteria/internal/core"
	"bicriteria/internal/dualapprox"
	"bicriteria/internal/lowerbound"
	"bicriteria/internal/moldable"
	"bicriteria/internal/schedule"
	"bicriteria/internal/workload"
)

// TestPortfolioMatchesReference holds runPortfolio to its members run one
// by one: every candidate that ran carries the schedule, criteria and
// score its member's exported Run gives alone on the batch, scored
// against lowerbound.Makespan and lowerbound.MinsumSquashedArea, and a
// raced batch stops at the first launch position whose reference
// candidate qualifies. It covers the four workload families, two machine
// sizes, batches of 1 to 40 jobs and the three objectives, with racing
// off and on (cutoff 2.5 with the bandit).
// One portfolio hands DEMT the caller's own CmaxEstimate, which must win
// over anything the portfolio computes for the batch.
func TestPortfolioMatchesReference(t *testing.T) {
	objectives := []Objective{
		{Kind: ObjectiveMakespan},
		{Kind: ObjectiveWeightedCompletion},
		{Kind: ObjectiveCombined, Alpha: 0.5},
	}
	modes := []struct {
		name string
		race Racing
	}{
		{"unraced", Racing{}},
		{"raced", Racing{Cutoff: 2.5, Bandit: true, Seed: 5}},
	}

	ctx := t.Context()
	// One bandit per objective across every batch, so the launch order
	// follows the recent winners as in a replay.
	states := make(map[ObjectiveKind]*raceState)
	cutShort, ranAll := 0, 0
	estimateMoved := false
	for _, kind := range workload.Kinds() {
		for _, m := range []int{16, 64} {
			for _, n := range []int{1, 5, 12, 40} {
				for seed := int64(1); seed <= 3; seed++ {
					inst, err := workload.Generate(workload.Config{Kind: kind, M: m, N: n, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					algos := DefaultPortfolio(nil)
					if seed == 2 {
						// A caller's estimate well above the dual
						// approximation's: DEMT must anchor its batches on
						// it, not on the portfolio's shared one.
						x := 3 * lowerbound.Makespan(inst)
						algos[0] = DEMTAlgorithm(&core.Options{CmaxEstimate: x})
					}
					refs := make([]memberRef, len(algos))
					for i, a := range algos {
						s, err := a.Run(ctx, inst)
						if err != nil {
							t.Fatalf("%s alone: %v", a.Name, err)
						}
						refs[i] = memberRef{sched: s, cmax: s.Makespan(), minsum: s.WeightedCompletion(inst)}
					}
					if seed == 2 && !estimateMoved {
						def, err := DEMTAlgorithm(nil).Run(ctx, inst)
						if err != nil {
							t.Fatal(err)
						}
						estimateMoved = !reflect.DeepEqual(def, refs[0].sched)
					}
					lb := batchBounds{cmax: lowerbound.Makespan(inst), minsum: lowerbound.MinsumSquashedArea(inst)}

					for _, obj := range objectives {
						for _, mode := range modes {
							name := fmt.Sprintf("%v/m=%d/n=%d/seed=%d/%v/%s", kind, m, n, seed, obj.Kind, mode.name)
							var state *raceState
							order := identityOrder(len(algos))
							if mode.race.enabled() {
								if states[obj.Kind] == nil {
									states[obj.Kind] = newRaceState(len(algos), mode.race)
								}
								state = states[obj.Kind]
								order = state.clone().launchOrder()
							}
							cands, scheds, win, err := runPortfolio(ctx, &batchFacts{inst: inst}, algos, obj, nil, mode.race, state)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							checkAgainstReference(t, name, inst, algos, refs, obj, mode.race, lb, order, cands, scheds, win)
							if mode.race.enabled() {
								if cands[order[len(order)-1]].Cancelled {
									cutShort++
								} else {
									ranAll++
								}
							}
						}
					}
				}
			}
		}
	}
	if cutShort == 0 || ranAll == 0 {
		t.Fatalf("raced batches: %d cut short, %d ran every member; both must occur", cutShort, ranAll)
	}
	if !estimateMoved {
		t.Fatal("the caller's CmaxEstimate never changed DEMT's schedule; the case pins nothing")
	}
}

// memberRef is one portfolio member's stand-alone result on a batch.
type memberRef struct {
	sched  *schedule.Schedule
	cmax   float64
	minsum float64
}

// checkAgainstReference compares one runPortfolio outcome with the
// members' stand-alone results, walking the launch order as the race
// does.
func checkAgainstReference(t *testing.T, name string, inst *moldable.Instance, algos []Algorithm, refs []memberRef, obj Objective, race Racing, lb batchBounds,
	order []int, cands []Candidate, scheds []*schedule.Schedule, win int) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	cut := false
	best := -1
	for _, i := range order {
		c := cands[i]
		if c.Name != algos[i].Name {
			t.Fatalf("%s: candidate %d is %q, want %q", name, i, c.Name, algos[i].Name)
		}
		if cut {
			if !c.Cancelled || scheds[i] != nil {
				t.Fatalf("%s: %s ran past the reference cut", name, c.Name)
			}
			continue
		}
		if c.Cancelled || c.Err != nil {
			t.Fatalf("%s: %s did not run (cancelled %v, err %v)", name, c.Name, c.Cancelled, c.Err)
		}
		r := refs[i]
		if !reflect.DeepEqual(scheds[i], r.sched) {
			t.Fatalf("%s: %s's schedule differs from its stand-alone Run", name, c.Name)
		}
		want := Candidate{Name: c.Name, Score: obj.score(inst, r.sched, lb), Makespan: r.cmax, WeightedCompletion: r.minsum}
		if !same(c.Score, want.Score) || !same(c.Makespan, want.Makespan) || !same(c.WeightedCompletion, want.WeightedCompletion) {
			t.Fatalf("%s: %s scored %+v, want %+v", name, c.Name, c, want)
		}
		if best < 0 || want.Score < cands[best].Score || (want.Score == cands[best].Score && i < best) {
			best = i
		}
		cut = race.qualifies(obj, &want, lb)
	}
	if win != best {
		t.Fatalf("%s: winner %d, want %d", name, win, best)
	}
}

// TestRacedCutComputesNoTwoShelf pins the shared dual approximation's
// laziness: a raced batch whose cut falls on gang, before DEMT and the
// list members, never computes it, while a batch that runs them holds
// the result TwoShelf gives.
func TestRacedCutComputesNoTwoShelf(t *testing.T) {
	inst, err := workload.Generate(workload.Config{Kind: workload.Mixed, M: 32, N: 20, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultPortfolio(nil)
	gangFirst := []Algorithm{p[1], p[0], p[2], p[3], p[4]}
	race := Racing{Cutoff: 1e9}

	f := &batchFacts{inst: inst}
	cands, _, win, err := runPortfolio(t.Context(), f, gangFirst, Objective{}, nil, race, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cands[win].Name != "gang" || !cands[1].Cancelled {
		t.Fatalf("winner %q, demt cancelled %v; want the cut on gang", cands[win].Name, cands[1].Cancelled)
	}
	if f.da != nil {
		t.Fatal("a batch cut on gang computed the two-shelf dual approximation")
	}

	f = &batchFacts{inst: inst}
	if _, _, _, err := runPortfolio(t.Context(), f, p, Objective{}, nil, Racing{}, nil); err != nil {
		t.Fatal(err)
	}
	want, err := dualapprox.TwoShelf(inst)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.da, want) {
		t.Fatal("the shared dual approximation differs from TwoShelf's")
	}
}

// TestPortfolioRunsMembersInOrder pins how an unraced batch runs its
// portfolio: the members are called one at a time, in portfolio order.
// Each recording member sleeps a few milliseconds while it counts itself
// in flight, so two members running at once cannot go unseen.
func TestPortfolioRunsMembersInOrder(t *testing.T) {
	var inFlight, overlaps atomic.Int32
	var mu sync.Mutex
	var calls []string
	var portfolio []Algorithm
	for _, a := range DefaultPortfolio(nil) {
		portfolio = append(portfolio, Algorithm{Name: a.Name, Run: func(ctx context.Context, inst *moldable.Instance) (*schedule.Schedule, error) {
			if inFlight.Add(1) > 1 {
				overlaps.Add(1)
			}
			defer inFlight.Add(-1)
			mu.Lock()
			calls = append(calls, a.Name)
			mu.Unlock()
			time.Sleep(3 * time.Millisecond)
			return a.Run(ctx, inst)
		}})
	}
	eng, err := New(Config{M: 16, Portfolio: portfolio})
	if err != nil {
		t.Fatal(err)
	}
	jobs := stream(t, 16, 12, 3, 4)
	rep, err := replay(t.Context(), eng, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if n := overlaps.Load(); n != 0 {
		t.Fatalf("%d member calls started while another member was running", n)
	}
	var want []string
	for range rep.Batches {
		for _, a := range portfolio {
			want = append(want, a.Name)
		}
	}
	if !slices.Equal(calls, want) {
		t.Fatalf("members called in order %v, want portfolio order over %d batches: %v", calls, len(rep.Batches), want)
	}
}
