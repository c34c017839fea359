package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bicriteria/internal/moldable"
	"bicriteria/internal/schedule"
)

// TestRacingDeterministicParallelVsSequential pins the tentpole invariant:
// with racing (and the bandit) enabled, the committed schedules, reports
// and winner sequence are byte-identical between a replay on one
// processor (GOMAXPROCS 1) and replays on every CPU — racing only decides
// who gets cancelled, never who wins.
func TestRacingDeterministicParallelVsSequential(t *testing.T) {
	jobs := stream(t, 32, 80, 9, 5)
	base := Config{
		M:         32,
		Objective: Objective{Kind: ObjectiveCombined, Alpha: 0.5},
		Perturb:   noise(t, 0.2, 9),
		Racing:    Racing{Cutoff: 2, Bandit: true, Seed: 7},
	}

	run := func(procs int) *Report {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		eng, err := New(base)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := replay(t.Context(), eng, jobs)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	seq := run(1)
	par := run(runtime.NumCPU())
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("racing replay on every CPU differs from the one-processor replay under the same seed")
	}
	par2 := run(runtime.NumCPU())
	if !reflect.DeepEqual(par, par2) {
		t.Fatal("two racing replays under the same seed differ")
	}
	cut := 0
	for _, br := range seq.Batches {
		cut += len(br.CutOff)
		for _, c := range br.Candidates {
			if c.Cancelled && (c.Err != nil || !math.IsNaN(c.Score) && c.Score != 0) {
				t.Fatalf("cancelled candidate %q carries a score or error: %+v", c.Name, c)
			}
		}
	}
	if cut == 0 {
		t.Fatal("racing at cutoff 2 never cut anyone off — the race is not exercising the cutoff")
	}
}

// TestRacingCutoffOneMatchesNonRacing pins the disabled semantics: a
// cutoff factor of 1 (or 0) is racing turned off, bit-identical to an
// engine without the field, under every objective, replayed on one
// processor (sequential=true: GOMAXPROCS 1) or on every CPU. Every member
// runs to completion: nothing is ever cut off.
func TestRacingCutoffOneMatchesNonRacing(t *testing.T) {
	jobs := stream(t, 24, 50, 4, 3)
	objectives := []Objective{
		{Kind: ObjectiveMakespan},
		{Kind: ObjectiveWeightedCompletion},
		{Kind: ObjectiveCombined, Alpha: 0.5},
	}
	for _, obj := range objectives {
		for _, sequential := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/sequential=%t", obj.Kind, sequential), func(t *testing.T) {
				if sequential {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				}
				run := func(r Racing) *Report {
					eng, err := New(Config{
						M:         24,
						Objective: obj,
						Perturb:   noise(t, 0.15, 4),
						Racing:    r,
					})
					if err != nil {
						t.Fatal(err)
					}
					rep, err := replay(t.Context(), eng, jobs)
					if err != nil {
						t.Fatal(err)
					}
					return rep
				}
				plain := run(Racing{})
				for _, br := range plain.Batches {
					if len(br.CutOff) > 0 {
						t.Fatalf("batch %d cut off %v with racing off", br.Index, br.CutOff)
					}
					for _, c := range br.Candidates {
						if c.Cancelled || c.Err != nil {
							t.Fatalf("batch %d: member %q did not run to completion: %+v", br.Index, c.Name, c)
						}
					}
				}
				one := run(Racing{Cutoff: 1, Bandit: true, Seed: 3})
				if !reflect.DeepEqual(plain, one) {
					t.Fatal("cutoff factor 1 does not reproduce the non-racing replay")
				}
				zero := run(Racing{Cutoff: 0})
				if !reflect.DeepEqual(plain, zero) {
					t.Fatal("cutoff factor 0 does not reproduce the non-racing replay")
				}
			})
		}
	}
}

// singleJob is a one-job stream for the straggler tests.
func singleJob() []Job {
	return []Job{{Task: moldable.Task{ID: 1, Weight: 1, Times: []float64{8, 5}}}}
}

// TestRacingCancelsStragglers checks the race cuts off a straggler: a
// fast optimal member launched first qualifies immediately, so a member
// that would block until cancelled is never launched, and is reported as
// cut off instead of stalling the batch.
func TestRacingCancelsStragglers(t *testing.T) {
	var stuckRuns atomic.Int32
	stuck := Algorithm{Name: "stuck", Run: func(ctx context.Context, inst *moldable.Instance) (*schedule.Schedule, error) {
		stuckRuns.Add(1)
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	eng, err := New(Config{
		M:         2,
		Portfolio: []Algorithm{DEMTAlgorithm(nil), stuck},
		Racing:    Racing{Cutoff: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var rep *Report
	go func() {
		defer close(done)
		rep, err = replay(t.Context(), eng, singleJob())
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("racing run with a blocked straggler did not return")
	}
	if err != nil {
		t.Fatal(err)
	}
	br := rep.Batches[0]
	if br.Winner != "demt" {
		t.Fatalf("winner %q, want demt", br.Winner)
	}
	if !reflect.DeepEqual(br.CutOff, []string{"stuck"}) {
		t.Fatalf("cut-off list %v, want [stuck]", br.CutOff)
	}
	if !br.Candidates[1].Cancelled {
		t.Fatalf("straggler not marked cancelled: %+v", br.Candidates[1])
	}
	if n := stuckRuns.Load(); n != 0 {
		t.Fatalf("straggler launched %d times, want 0: members past the cut must never start", n)
	}
}

// TestRunContextCancelMidBatch is the regression test for the
// uncancellable-portfolio bug: a replay used to check the context only
// between batches, so a cancellation during a batch still ran every
// member to completion. Now a mid-batch cancel must return promptly with
// the context's error.
func TestRunContextCancelMidBatch(t *testing.T) {
	var once sync.Once
	started := make(chan struct{})
	blocking := Algorithm{Name: "blocking", Run: func(ctx context.Context, inst *moldable.Instance) (*schedule.Schedule, error) {
		once.Do(func() { close(started) })
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	eng, err := New(Config{M: 2, Portfolio: []Algorithm{blocking}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-started
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := replay(ctx, eng, singleJob())
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mid-batch cancel returned %v, want a context.Canceled wrap", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("mid-batch cancel did not abort the portfolio")
	}
}

// TestCombinedScoreDegenerateBounds is the table-driven pin of the
// normalization guard: degenerate lower bounds (zero, NaN, Inf — e.g. a
// batch of zero-weight jobs has LB(sum wC) = 0) must leave the criterion
// raw instead of producing NaN/Inf scores.
func TestCombinedScoreDegenerateBounds(t *testing.T) {
	inst := moldable.NewInstance(2, []moldable.Task{{ID: 0, Weight: 0, Times: []float64{4, 2}}})
	s := schedule.New(2)
	s.Add(schedule.Assignment{TaskID: 0, Start: 0, NProcs: 1, Procs: []int{0}, Duration: 4})
	obj := Objective{Kind: ObjectiveCombined, Alpha: 0.5}
	// Makespan 4, weighted completion 0 (zero-weight job).
	cases := []struct {
		name string
		lb   batchBounds
		want float64
	}{
		{"both usable", batchBounds{cmax: 2, minsum: 5}, 0.5 * (4.0 / 2)},
		{"zero bounds stay raw", batchBounds{}, 0.5 * 4},
		{"zero minsum only", batchBounds{cmax: 4}, 0.5 * 1},
		{"NaN bound stays raw", batchBounds{cmax: math.NaN()}, 0.5 * 4},
		{"Inf bound stays raw", batchBounds{cmax: math.Inf(1), minsum: math.Inf(1)}, 0.5 * 4},
		{"negative bound stays raw", batchBounds{cmax: -3, minsum: -1}, 0.5 * 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := obj.score(inst, s, tc.lb)
			if math.IsNaN(got) || math.IsInf(got, 0) {
				t.Fatalf("score is not finite: %g", got)
			}
			if math.Abs(got-tc.want) > 1e-12 {
				t.Fatalf("score %g, want %g", got, tc.want)
			}
		})
	}
}

// TestWinnerSelectionSkipsFailedCandidates pins the order-independence
// fix: a failed member's NaN score must never stick as "winner" however
// early it sits in the portfolio.
func TestWinnerSelectionSkipsFailedCandidates(t *testing.T) {
	failing := Algorithm{Name: "failing", Run: func(ctx context.Context, inst *moldable.Instance) (*schedule.Schedule, error) {
		return nil, errors.New("synthetic failure")
	}}
	for _, order := range [][]Algorithm{
		{failing, DEMTAlgorithm(nil)},
		{DEMTAlgorithm(nil), failing},
	} {
		inst := moldable.NewInstance(2, []moldable.Task{{ID: 1, Weight: 1, Times: []float64{6, 4}}})
		cands, _, win, err := runPortfolio(context.Background(), &batchFacts{inst: inst},
			order, Objective{Kind: ObjectiveCombined, Alpha: 0.5}, nil, Racing{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cands[win].Name != "demt" {
			t.Fatalf("winner %q with portfolio order %q first, want demt", cands[win].Name, order[0].Name)
		}
	}
}
