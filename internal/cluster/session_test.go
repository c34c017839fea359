package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"bicriteria/internal/moldable"
	"bicriteria/internal/obs"
	"bicriteria/internal/reservation"
	"bicriteria/internal/schedule"
)

// replay is a full replay of the stream through the engine: a Session fed
// the whole stream at once, then finished.
func replay(ctx context.Context, e *Engine, jobs []Job) (*Report, error) {
	s := e.NewSession(ctx)
	if err := s.Feed(jobs...); err != nil {
		return nil, err
	}
	return s.Finish()
}

// randomCuts draws k increasing cut times inside the stream's release span,
// some of them exactly on a release date (the tie the prefix rule is
// about).
func randomCuts(rng *rand.Rand, jobs []Job, k int) []float64 {
	last := jobs[len(jobs)-1].Release
	cuts := make([]float64, k)
	for i := range cuts {
		if i%2 == 0 {
			cuts[i] = jobs[rng.Intn(len(jobs))].Release
		} else {
			cuts[i] = rng.Float64() * last * 1.1
		}
	}
	sort.Float64s(cuts)
	return cuts
}

// piecesBefore splits a stream at the cuts: piece i holds the jobs
// released before cuts[i] and at or after cuts[i-1]; the last piece holds
// the rest. Each piece is shuffled, like the serve collectors deliver it.
func piecesBefore(rng *rand.Rand, jobs []Job, cuts []float64) [][]Job {
	pieces := make([][]Job, len(cuts)+1)
	for _, j := range jobs {
		k := sort.Search(len(cuts), func(i int) bool { return j.Release < cuts[i] })
		pieces[k] = append(pieces[k], j)
	}
	for _, p := range pieces {
		rng.Shuffle(len(p), func(a, b int) { p[a], p[b] = p[b], p[a] })
	}
	return pieces
}

// TestSessionOracle is the property the live service rests on: for random
// streams and cut points, under every batch policy, with and without node
// faults and racing, a session fed piece by piece and advanced to each cut
// finishes with exactly replay's report of the whole stream — and a
// fork taken at any cut finishes with exactly replay's report of the
// jobs fed so far, leaving the original untouched.
func TestSessionOracle(t *testing.T) {
	fixed, err := FixedInterval(7)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := AdaptiveBacklog(60, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []BatchPolicy{BatchOnIdle(), fixed, adaptive} {
		for _, faulted := range []bool{false, true} {
			for _, racing := range []bool{false, true} {
				name := fmt.Sprintf("%s/faults=%v/racing=%v", policy.Name(), faulted, racing)
				t.Run(name, func(t *testing.T) {
					seed := int64(len(name))
					cfg := Config{
						M:            16,
						Policy:       policy,
						Objective:    Objective{Kind: ObjectiveCombined, Alpha: 0.5},
						Perturb:      noise(t, 0.2, seed),
						Reservations: []reservation.Reservation{{Name: "maint", Procs: 4, Start: 6, End: 14}},
					}
					if faulted {
						cfg.Outages = faultPlanWindows(t, 16, seed, 12, 3, 200)
						cfg.Replan = ReplanPolicy{Kind: ReplanCheckpoint}
					}
					if racing {
						cfg.Racing = Racing{Cutoff: 2, Bandit: true, Seed: seed}
					}
					eng, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(seed))
					for trial := 0; trial < 2; trial++ {
						jobs := stream(t, 16, 50, seed+int64(trial), 3)
						checkPieces(t, eng, jobs, randomCuts(rng, jobs, 1+trial*2), rng)
					}
				})
			}
		}
	}
}

// checkPieces runs one oracle trial.
func checkPieces(t *testing.T, eng *Engine, jobs []Job, cuts []float64, rng *rand.Rand) {
	t.Helper()
	ctx := context.Background()
	offline := func(jobs []Job) *Report {
		rep, err := replay(ctx, eng, jobs)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	pieces := piecesBefore(rng, jobs, cuts)
	s := eng.NewSession(ctx)
	if err := s.Feed(pieces[0]...); err != nil {
		t.Fatal(err)
	}
	fed := pieces[0]
	for i, cut := range cuts {
		if err := s.AdvanceTo(cut); err != nil {
			t.Fatal(err)
		}
		for _, br := range s.Committed().Batches {
			if !(br.FireTime < cut-1e-9) {
				t.Fatalf("cut %g: committed batch %d fires at %g, not before the cut", cut, br.Index, br.FireTime)
			}
		}
		if err := s.Feed(pieces[i+1]...); err != nil {
			t.Fatal(err)
		}
		fed = append(fed[:len(fed):len(fed)], pieces[i+1]...)
		got, err := s.Fork().Finish()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, offline(fed)) {
			t.Fatalf("cut %g: a fork finishes unlike the offline replay of the %d jobs fed", cut, len(fed))
		}
	}
	got, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, offline(jobs)) {
		t.Fatalf("cuts %v: the session finishes unlike the offline replay", cuts)
	}
	if _, err := s.Finish(); err == nil {
		t.Fatal("a finished session finished again")
	}
}

// TestSessionStopsAtEveryUndecidedStep pins, on hand-built streams, each
// place the loop must stop for a job fed after the cut: the one-processor
// machine makes batch boundaries exact.
func TestSessionStopsAtEveryUndecidedStep(t *testing.T) {
	const eps = 1e-9 // moldable.Eps
	seq := func(id int, release, duration float64) Job {
		return Job{Task: moldable.Sequential(id, 1, duration), Release: release}
	}
	adaptive, err := AdaptiveBacklog(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		policy BatchPolicy
		before []Job
		cut    float64
		after  []Job
	}{{
		// Batch 0 ends exactly eps/2 before the cut with job 1 waiting: a
		// job released eps/3 after the cut still joins batch 1.
		name:   "batch ends inside the margin",
		before: []Job{seq(0, 0, 10), seq(1, 1, 1)},
		cut:    10 + eps/2,
		after:  []Job{seq(2, 10+eps*0.8, 1)},
	}, {
		// The only known arrival is inside the margin: the clock must not
		// jump to it.
		name:   "arrival inside the margin",
		before: []Job{seq(0, 5, 1)},
		cut:    5 + eps/2,
		after:  []Job{seq(1, 5+eps*0.8, 1)},
	}, {
		// The policy waits until 5, but an arrival after the cut pushes the
		// backlog over the work target at 4 and fires there.
		name:   "policy wait crosses the cut",
		policy: adaptive,
		before: []Job{seq(0, 0, 2)},
		cut:    3,
		after:  []Job{seq(1, 4, 9)},
	}, {
		// A known arrival after the cut lands before the fire time; a later
		// feed may still precede it.
		name:   "known arrival after the cut",
		policy: adaptive,
		before: []Job{seq(0, 0, 2), seq(1, 4.5, 1)},
		cut:    3,
		after:  []Job{seq(2, 4, 9)},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := New(Config{M: 1, Policy: tc.policy})
			if err != nil {
				t.Fatal(err)
			}
			s := eng.NewSession(context.Background())
			if err := s.Feed(tc.before...); err != nil {
				t.Fatal(err)
			}
			if err := s.AdvanceTo(tc.cut); err != nil {
				t.Fatal(err)
			}
			if err := s.Feed(tc.after...); err != nil {
				t.Fatal(err)
			}
			got, err := s.Finish()
			if err != nil {
				t.Fatal(err)
			}
			want, err := replay(t.Context(), eng, append(append([]Job(nil), tc.before...), tc.after...))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("batches %v, want %v", batchJobs(got), batchJobs(want))
			}
		})
	}
}

func batchJobs(rep *Report) [][]int {
	var out [][]int
	for _, br := range rep.Batches {
		out = append(out, br.Jobs)
	}
	return out
}

// TestSessionFeedContract pins Feed's checks: a job released before the
// boundary, a duplicate across feeds or inside one call, and an invalid
// task each reject the whole call, leaving the session as it was.
func TestSessionFeedContract(t *testing.T) {
	eng, err := New(Config{M: 8})
	if err != nil {
		t.Fatal(err)
	}
	jobs := stream(t, 8, 12, 5, 2)
	s := eng.NewSession(context.Background())
	if err := s.Feed(jobs[:6]...); err != nil {
		t.Fatal(err)
	}
	cut := jobs[6].Release
	if err := s.AdvanceTo(cut); err != nil {
		t.Fatal(err)
	}
	early := jobs[7]
	early.Release = cut / 2
	bad := jobs[8]
	bad.Task.Times = nil
	for name, call := range map[string][]Job{
		"before the boundary": {jobs[6], early},
		"duplicate across":    {jobs[6], jobs[0]},
		"duplicate inside":    {jobs[6], jobs[6]},
		"invalid task":        {jobs[6], bad},
	} {
		if err := s.Feed(call...); err == nil {
			t.Errorf("%s: Feed accepted the call", name)
		}
	}
	// Nothing of the rejected calls stuck: the rest still replays exactly.
	if err := s.Feed(jobs[6:]...); err != nil {
		t.Fatal(err)
	}
	got, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	want, err := replay(t.Context(), eng, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("rejected feeds left a trace in the session")
	}
}

// TestSessionForkRecordsNothing checks the metrics contract: the racing
// counters count each committed batch once, however many forks finished.
func TestSessionForkRecordsNothing(t *testing.T) {
	reg := obs.NewRegistry()
	var batches int
	eng, err := New(Config{
		M:       16,
		Racing:  Racing{Cutoff: 2, Bandit: true},
		Metrics: reg,
		OnBatch: func(BatchReport) { batches++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs := stream(t, 16, 40, 8, 4)
	s := eng.NewSession(context.Background())
	if err := s.Feed(jobs...); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []float64{jobs[10].Release, jobs[20].Release, jobs[30].Release} {
		if err := s.AdvanceTo(cut); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Fork().Finish(); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if batches != len(rep.Batches) {
		t.Fatalf("OnBatch saw %d batches, the report has %d", batches, len(rep.Batches))
	}
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	wins := 0.0
	for _, line := range strings.Split(text.String(), "\n") {
		if strings.HasPrefix(line, "bicrit_portfolio_wins_total{") {
			var v float64
			fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &v)
			wins += v
		}
	}
	if int(wins) != len(rep.Batches) {
		t.Fatalf("wins_total sums to %g over %d batches", wins, len(rep.Batches))
	}
}

// TestReplayLeavesJobTimesUntouched: the batch instances share the
// submitted jobs' time vectors, so a replay must leave every one of them
// bit for bit as it was, here with vectors longer than the machine, node
// faults with checkpointed resubmission, runtime noise, reservations and
// the racing portfolio.
func TestReplayLeavesJobTimesUntouched(t *testing.T) {
	for _, racing := range []bool{false, true} {
		cfg := Config{
			M:            16,
			Objective:    Objective{Kind: ObjectiveCombined, Alpha: 0.5},
			Perturb:      noise(t, 0.2, 5),
			Reservations: []reservation.Reservation{{Name: "maint", Procs: 4, Start: 6, End: 14}},
			Outages:      faultPlanWindows(t, 16, 5, 12, 3, 200),
			Replan:       ReplanPolicy{Kind: ReplanCheckpoint},
		}
		if racing {
			cfg.Racing = Racing{Cutoff: 2, Bandit: true, Seed: 5}
		}
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		jobs := stream(t, 32, 80, 5, 3)
		before := make([][]uint64, len(jobs))
		for i, j := range jobs {
			for _, p := range j.Task.Times {
				before[i] = append(before[i], math.Float64bits(p))
			}
		}
		rep, err := replay(t.Context(), eng, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Metrics.Resubmitted == 0 {
			t.Fatalf("racing=%v: no job was resubmitted, so the fault path went untested", racing)
		}
		for i, j := range jobs {
			if len(j.Task.Times) != len(before[i]) {
				t.Fatalf("racing=%v: job %d has %d times after the replay, %d before", racing, j.Task.ID, len(j.Task.Times), len(before[i]))
			}
			for k, p := range j.Task.Times {
				if math.Float64bits(p) != before[i][k] {
					t.Fatalf("racing=%v: job %d's p(%d) changed from %v to %v", racing, j.Task.ID, k+1, math.Float64frombits(before[i][k]), p)
				}
			}
		}
	}
}

// TestForeignMemberWritesStayInItsBatch: a portfolio member built outside
// this package may write its batch instance's time vectors. The engine
// hands such a portfolio a copy, so the writes (here: every time doubled
// before gang schedules the batch) reach neither the submitted jobs nor
// the next batch, which again sees the jobs' own times.
func TestForeignMemberWritesStayInItsBatch(t *testing.T) {
	jobs := stream(t, 32, 60, 7, 3)
	own := make(map[int][]float64, len(jobs))
	for _, j := range jobs {
		own[j.Task.ID] = append([]float64(nil), j.Task.Times...)
	}
	gang := DefaultPortfolio(nil)[1]
	batches := 0
	doubling := Algorithm{Name: "doubling-gang", Run: func(ctx context.Context, inst *moldable.Instance) (*schedule.Schedule, error) {
		batches++
		for i := range inst.Tasks {
			task := &inst.Tasks[i]
			if want := own[task.ID][:min(len(own[task.ID]), inst.M)]; !reflect.DeepEqual(task.Times, want) {
				t.Fatalf("batch %d: job %d arrives with times %v, want its own %v", batches, task.ID, task.Times, want)
			}
			for k := range task.Times {
				task.Times[k] *= 2
			}
		}
		return gang.Run(ctx, inst)
	}}
	eng, err := New(Config{M: 16, Portfolio: []Algorithm{doubling}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := replay(t.Context(), eng, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if batches < 2 || len(rep.Batches) != batches {
		t.Fatalf("the member ran %d times over %d batches, want one run per batch and at least two", batches, len(rep.Batches))
	}
	for _, j := range jobs {
		if !reflect.DeepEqual(j.Task.Times, own[j.Task.ID]) {
			t.Fatalf("job %d's times changed from %v to %v", j.Task.ID, own[j.Task.ID], j.Task.Times)
		}
	}
}
