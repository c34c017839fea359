package cluster

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"bicriteria/internal/baselines"
	"bicriteria/internal/core"
	"bicriteria/internal/faults"
	"bicriteria/internal/moldable"
	"bicriteria/internal/reservation"
	"bicriteria/internal/schedule"
	"bicriteria/internal/workload"
)

// noise builds a UniformNoise perturbation, failing the test on a bad
// fraction.
func noise(t testing.TB, frac float64, seed int64) func(int, float64) float64 {
	t.Helper()
	f, err := UniformNoise(frac, seed)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// stream generates a deterministic bursty Poisson job stream.
func stream(t testing.TB, m, n int, seed int64, burst int) []Job {
	t.Helper()
	arrivals, err := workload.GenerateArrivals(workload.ArrivalConfig{
		Workload:  workload.Config{Kind: workload.Mixed, M: m, N: n, Seed: seed},
		Rate:      3,
		BurstSize: burst,
	})
	if err != nil {
		t.Fatal(err)
	}
	return JobsFromArrivals(arrivals)
}

func TestArrivalsDeterministicAndSorted(t *testing.T) {
	cfg := workload.ArrivalConfig{
		Workload:  workload.Config{Kind: workload.Cirne, M: 16, N: 40, Seed: 5},
		Rate:      2,
		BurstSize: 4,
	}
	a, err := workload.GenerateArrivals(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.GenerateArrivals(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two generations with the same config differ")
	}
	for i := 1; i < len(a); i++ {
		if a[i].Submit < a[i-1].Submit {
			t.Fatalf("arrivals out of order at %d: %g after %g", i, a[i].Submit, a[i-1].Submit)
		}
	}
	// Bursts of 4 share their submission instant.
	for i := 0; i < len(a); i += 4 {
		for j := i + 1; j < i+4 && j < len(a); j++ {
			if a[j].Submit != a[i].Submit {
				t.Fatalf("burst member %d does not share the burst instant (%g vs %g)", j, a[j].Submit, a[i].Submit)
			}
		}
	}
	if _, err := workload.GenerateArrivals(workload.ArrivalConfig{
		Workload: workload.Config{Kind: workload.Mixed, M: 8, N: 4, Seed: 1},
	}); err == nil {
		t.Fatal("zero rate accepted")
	}
}

func TestPortfolioReplayDeterministicParallelVsSequential(t *testing.T) {
	jobs := stream(t, 32, 80, 9, 5)
	base := Config{
		M:         32,
		Objective: Objective{Kind: ObjectiveCombined, Alpha: 0.5},
		Perturb:   noise(t, 0.2, 9),
		Reservations: []reservation.Reservation{
			{Name: "maint", Procs: 8, Start: 5, End: 15},
		},
	}

	run := func(sequential bool, procs int) *Report {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		cfg := base
		cfg.Sequential = sequential
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.RunContext(t.Context(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	seq := run(true, 1)
	par := run(false, runtime.NumCPU())
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel portfolio replay differs from sequential replay under the same seed")
	}
	par2 := run(false, runtime.NumCPU())
	if !reflect.DeepEqual(par, par2) {
		t.Fatal("two parallel replays under the same seed differ")
	}
	if seq.Metrics.Batches == 0 || seq.Metrics.Jobs != len(jobs) {
		t.Fatalf("unexpected metrics: %+v", seq.Metrics)
	}
}

// referenceBatch is one batch of referenceBatchLoop: its start time and
// its jobs' IDs, sorted.
type referenceBatch struct {
	start float64
	jobs  []int
}

// referenceBatchLoop is the on-line batch framework of section 2.2 of the
// paper written out directly, as the library's stand-alone on-line
// scheduler once implemented it: every job released by now forms the next
// batch, alg plans the batch off-line, and the batch runs to completion
// before the next one starts; with nothing pending, the loop idles to the
// next release. It returns the batches, the schedule with absolute starts,
// and the metrics recomputed from that schedule (makespan, max flow, mean
// stretch over each job's fastest time, weighted completion).
func referenceBatchLoop(t *testing.T, m int, jobs []Job, alg Algorithm) ([]referenceBatch, *schedule.Schedule, Metrics) {
	t.Helper()
	pending := slices.Clone(jobs)
	sort.SliceStable(pending, func(a, b int) bool { return pending[a].Release < pending[b].Release })
	out := schedule.New(m)
	var batches []referenceBatch
	for now, next := 0.0, 0; next < len(pending); {
		now = math.Max(now, pending[next].Release)
		var tasks []moldable.Task
		for next < len(pending) && pending[next].Release <= now+moldable.Eps {
			tasks = append(tasks, pending[next].Task)
			next++
		}
		inst := moldable.NewInstance(m, tasks)
		sub, err := alg.Run(context.Background(), inst)
		if err != nil {
			t.Fatal(err)
		}
		if err := sub.Validate(inst, nil); err != nil {
			t.Fatalf("reference batch %d: %v", len(batches), err)
		}
		b := referenceBatch{start: now}
		for _, a := range sub.Assignments {
			a.Start += now
			out.Add(a)
			b.jobs = append(b.jobs, a.TaskID)
		}
		sort.Ints(b.jobs)
		batches = append(batches, b)
		now += sub.Makespan()
	}

	byID := make(map[int]Job, len(jobs))
	for _, j := range jobs {
		byID[j.Task.ID] = j
	}
	met := Metrics{Makespan: out.Makespan()}
	for _, a := range out.Assignments {
		j := byID[a.TaskID]
		flow := a.End() - j.Release
		met.MaxFlow = math.Max(met.MaxFlow, flow)
		met.WeightedCompletion += j.Task.Weight * a.End()
		pmin, _ := j.Task.MinTime()
		met.MeanStretch += flow / pmin / float64(len(jobs))
	}
	return batches, out, met
}

// checkBatchOnIdle runs jobs through a batch-on-idle engine with alg as its
// only member and exact execution, and requires the reference loop's
// batches, completion times and metrics, a schedule that respects every
// release date, and batches that never overlap.
func checkBatchOnIdle(t *testing.T, m int, jobs []Job, alg Algorithm) *Report {
	t.Helper()
	wantBatches, wantSched, want := referenceBatchLoop(t, m, jobs, alg)
	eng, err := New(Config{M: m, Portfolio: []Algorithm{alg}, Policy: BatchOnIdle()})
	if err != nil {
		t.Fatal(err)
	}
	report, err := eng.RunContext(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}

	if len(report.Batches) != len(wantBatches) {
		t.Fatalf("%s: engine built %d batches, the reference %d", alg.Name, len(report.Batches), len(wantBatches))
	}
	for i, br := range report.Batches {
		if !reflect.DeepEqual(br.Jobs, wantBatches[i].jobs) {
			t.Fatalf("%s: batch %d composition differs: %v vs %v", alg.Name, i, br.Jobs, wantBatches[i].jobs)
		}
		if math.Abs(br.FireTime-wantBatches[i].start) > 1e-9 {
			t.Fatalf("%s: batch %d fired at %g, the reference at %g", alg.Name, i, br.FireTime, wantBatches[i].start)
		}
		if prev := i - 1; prev >= 0 && br.FireTime < report.Batches[prev].FireTime+report.Batches[prev].RealizedMakespan-1e-9 {
			t.Fatalf("%s: batch %d starts before batch %d finishes", alg.Name, i, prev)
		}
	}
	for _, a := range wantSched.Assignments {
		got := report.Schedule.Assignment(a.TaskID)
		if got == nil {
			t.Fatalf("%s: task %d missing from the engine trace", alg.Name, a.TaskID)
		}
		if math.Abs(got.End()-a.End()) > 1e-9 {
			t.Fatalf("%s: task %d completes at %g in the engine, %g in the reference", alg.Name, a.TaskID, got.End(), a.End())
		}
	}
	got := report.Metrics
	for _, c := range []struct {
		name      string
		got, want float64
		tol       float64
	}{
		{"makespan", got.Makespan, want.Makespan, 1e-9},
		{"max flow", got.MaxFlow, want.MaxFlow, 1e-9},
		{"mean stretch", got.MeanStretch, want.MeanStretch, 1e-9},
		{"weighted completion", got.WeightedCompletion, want.WeightedCompletion, 1e-6},
	} {
		if math.Abs(c.got-c.want) > c.tol {
			t.Fatalf("%s: %s %g, the reference %g", alg.Name, c.name, c.got, c.want)
		}
	}

	tasks := make([]moldable.Task, len(jobs))
	releases := make(map[int]float64, len(jobs))
	for i, j := range jobs {
		tasks[i] = j.Task
		releases[j.Task.ID] = j.Release
	}
	if err := report.Schedule.Validate(moldable.NewInstance(m, tasks), &schedule.ValidateOptions{ReleaseDates: releases}); err != nil {
		t.Fatalf("%s: invalid on-line schedule: %v", alg.Name, err)
	}
	return report
}

// TestBatchOnIdleMatchesOnlineFramework checks that a batch-on-idle engine
// with a one-member portfolio is the paper's on-line batch framework:
// DEMT and a baseline member, on a generated stream, a hand-written one
// whose jobs arrive during a batch, and one with an idle gap.
func TestBatchOnIdleMatchesOnlineFramework(t *testing.T) {
	midBatch := []Job{
		{Task: moldable.Task{ID: 0, Weight: 2, Times: []float64{6, 3.5, 2.6, 2.2}}, Release: 0},
		{Task: moldable.Sequential(1, 1, 2), Release: 0},
		{Task: moldable.Task{ID: 2, Weight: 3, Times: []float64{8, 4.5, 3.2, 2.5}}, Release: 1.5},
		{Task: moldable.Sequential(3, 4, 1), Release: 7},
		{Task: moldable.Task{ID: 4, Weight: 1, Times: []float64{4, 2.5}}, Release: 7.2},
	}
	idleGap := []Job{
		{Task: moldable.Sequential(0, 1, 1), Release: 0},
		{Task: moldable.Sequential(1, 1, 1), Release: 100},
	}
	for _, alg := range []Algorithm{DEMTAlgorithm(nil), {Name: "seq-lpt", Run: baselines.SequentialContext}} {
		checkBatchOnIdle(t, 24, stream(t, 24, 60, 3, 1), alg)

		report := checkBatchOnIdle(t, 4, midBatch, alg)
		if len(report.Batches) < 2 || slices.Contains(report.Batches[0].Jobs, 2) {
			t.Fatalf("%s: job 2, released during batch 0, joined it: %v", alg.Name, report.Batches)
		}

		report = checkBatchOnIdle(t, 2, idleGap, alg)
		if len(report.Batches) != 2 || report.Batches[1].FireTime != 100 {
			t.Fatalf("%s: the second batch must wait for the release at 100: %+v", alg.Name, report.Batches)
		}
	}
}

// TestPropertyBatchOnIdleValidForRandomJobSets runs seeded random job sets
// with bursts of equal release dates through checkBatchOnIdle.
func TestPropertyBatchOnIdleValidForRandomJobSets(t *testing.T) {
	demt := DEMTAlgorithm(&core.Options{Shuffles: 2})
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := 4 + r.Intn(12)
		inst, err := workload.Generate(workload.Config{Kind: workload.Mixed, M: m, N: 5 + r.Intn(15), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		jobs := make([]Job, inst.N())
		for i := range inst.Tasks {
			jobs[i] = Job{Task: inst.Tasks[i], Release: float64(r.Intn(5)) * 3}
		}
		checkBatchOnIdle(t, m, jobs, demt)
	}
}

func TestReservationsNeverViolatedDuringReplay(t *testing.T) {
	jobs := stream(t, 32, 70, 17, 6)
	reservations := []reservation.Reservation{
		{Name: "maint-a", Procs: 12, Start: 3, End: 20},
		{Name: "maint-b", Procs: 8, Start: 15, End: 40},
	}
	eng, err := New(Config{
		M:            32,
		Reservations: reservations,
		Perturb:      noise(t, 0.3, 17),
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := eng.RunContext(t.Context(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if err := reservation.ValidateAgainstReservations(report.Schedule, reservations, report.Blocked); err != nil {
		t.Fatalf("realized trace violates a reservation: %v", err)
	}
	// Overlapping reservations must block disjoint processors.
	seen := map[int]bool{}
	for _, p := range report.Blocked[0] {
		seen[p] = true
	}
	for _, p := range report.Blocked[1] {
		if seen[p] {
			t.Fatalf("overlapping reservations share processor %d", p)
		}
	}
}

func TestFixedIntervalFiresOnTicks(t *testing.T) {
	const period = 10.0
	policy, err := FixedInterval(period)
	if err != nil {
		t.Fatal(err)
	}
	jobs := stream(t, 16, 40, 21, 3)
	eng, err := New(Config{M: 16, Policy: policy, Portfolio: []Algorithm{DEMTAlgorithm(nil)}})
	if err != nil {
		t.Fatal(err)
	}
	report, err := eng.RunContext(t.Context(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, br := range report.Batches {
		ticks := br.FireTime / period
		if math.Abs(ticks-math.Round(ticks)) > 1e-6 {
			t.Fatalf("batch %d fired at %g, not on a multiple of %g", br.Index, br.FireTime, period)
		}
	}
	if _, err := FixedInterval(0); err == nil {
		t.Fatal("zero period accepted")
	}
}

func TestAdaptiveBacklogFiresOnWorkOrDelay(t *testing.T) {
	policy, err := AdaptiveBacklog(100, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Below the work target the policy waits until the oldest job ages out.
	small := []Job{{Task: moldable.Sequential(0, 1, 2), Release: 7}}
	if fire := policy.NextFire(8, small); fire != 57 {
		t.Fatalf("under-threshold backlog should fire at release+maxDelay=57, got %g", fire)
	}
	// Above the work target it fires immediately.
	big := []Job{
		{Task: moldable.Sequential(0, 1, 60), Release: 7},
		{Task: moldable.Sequential(1, 1, 60), Release: 8},
	}
	if fire := policy.NextFire(9, big); fire != 9 {
		t.Fatalf("over-threshold backlog should fire immediately, got %g", fire)
	}
	if _, err := AdaptiveBacklog(0, 10); err == nil {
		t.Fatal("zero work target accepted")
	}
	if _, err := AdaptiveBacklog(10, -1); err == nil {
		t.Fatal("negative max delay accepted")
	}
}

func TestUniformNoiseValidation(t *testing.T) {
	if f, err := UniformNoise(0, 1); err != nil || f != nil {
		t.Fatalf("zero fraction should yield nil perturbation, got %t, %v", f != nil, err)
	}
	for _, frac := range []float64{-0.1, 1, 1.5, math.NaN()} {
		if _, err := UniformNoise(frac, 1); err == nil {
			t.Fatalf("fraction %g accepted", frac)
		}
	}
	f := noise(t, 0.5, 7)
	if got, want := f(3, 10.0), f(3, 10.0); got != want {
		t.Fatalf("perturbation not deterministic: %g vs %g", got, want)
	}
	if v := f(3, 10.0); v < 5 || v > 15 {
		t.Fatalf("perturbed value %g outside [5, 15]", v)
	}
}

func TestEngineInputValidation(t *testing.T) {
	if _, err := New(Config{M: 0}); err == nil {
		t.Fatal("zero-processor machine accepted")
	}
	if _, err := New(Config{M: 8, Portfolio: []Algorithm{{Name: "x"}}}); err == nil {
		t.Fatal("algorithm without Run accepted")
	}
	if _, err := New(Config{M: 8, Portfolio: []Algorithm{DEMTAlgorithm(nil), DEMTAlgorithm(nil)}}); err == nil {
		t.Fatal("duplicate algorithm names accepted")
	}
	if _, err := New(Config{M: 8, Objective: Objective{Kind: ObjectiveCombined, Alpha: 2}}); err == nil {
		t.Fatal("alpha outside [0,1] accepted")
	}
	if _, err := New(Config{M: 8, Reservations: []reservation.Reservation{{Procs: 8, Start: 0, End: 10}}}); err == nil {
		t.Fatal("reservation blocking the whole machine accepted")
	}

	eng, err := New(Config{M: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunContext(t.Context(), []Job{
		{Task: moldable.Sequential(1, 1, 1), Release: 0},
		{Task: moldable.Sequential(1, 1, 2), Release: 1},
	}); err == nil {
		t.Fatal("duplicate job IDs accepted")
	}
	if _, err := eng.RunContext(t.Context(), []Job{{Task: moldable.Sequential(1, 1, 1), Release: -1}}); err == nil {
		t.Fatal("negative release accepted")
	}
	if _, err := eng.RunContext(t.Context(), []Job{{Task: moldable.Task{ID: 1, Weight: 1}, Release: 0}}); err == nil {
		t.Fatal("task without processing times accepted")
	}
	failing, err := New(Config{M: 8, Portfolio: []Algorithm{{Name: "failing", Run: func(context.Context, *moldable.Instance) (*schedule.Schedule, error) {
		return nil, errors.New("synthetic failure")
	}}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := failing.RunContext(t.Context(), []Job{{Task: moldable.Sequential(1, 1, 1), Release: 0}}); err == nil {
		t.Fatal("a portfolio whose only member fails produced a report")
	}
	report, err := eng.RunContext(t.Context(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if report.Metrics.Jobs != 0 || len(report.Batches) != 0 {
		t.Fatalf("empty stream produced non-empty report: %+v", report.Metrics)
	}
}

func TestObjectiveSelectsWinner(t *testing.T) {
	jobs := stream(t, 16, 30, 2, 1)
	for _, obj := range []Objective{
		{Kind: ObjectiveMakespan},
		{Kind: ObjectiveWeightedCompletion},
		{Kind: ObjectiveCombined, Alpha: 0.3},
	} {
		eng, err := New(Config{M: 16, Objective: obj})
		if err != nil {
			t.Fatal(err)
		}
		report, err := eng.RunContext(t.Context(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		for _, br := range report.Batches {
			winnerScore := math.Inf(1)
			for _, c := range br.Candidates {
				if c.Name == br.Winner {
					winnerScore = c.Score
				}
			}
			for _, c := range br.Candidates {
				if c.Err == nil && c.Score < winnerScore-1e-12 {
					t.Fatalf("objective %v: batch %d committed %s (score %g) but %s scored %g",
						obj, br.Index, br.Winner, winnerScore, c.Name, c.Score)
				}
			}
		}
	}
}

func TestMetricsPercentilesAndBoundedSlowdown(t *testing.T) {
	jobs := stream(t, 24, 90, 13, 4)
	eng, err := New(Config{M: 24, Perturb: noise(t, 0.2, 13)})
	if err != nil {
		t.Fatal(err)
	}
	report, err := eng.RunContext(t.Context(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	m := report.Metrics
	if !(m.StretchP50 <= m.StretchP95+1e-9 && m.StretchP95 <= m.StretchP99+1e-9) {
		t.Fatalf("stretch percentiles out of order: %g %g %g", m.StretchP50, m.StretchP95, m.StretchP99)
	}
	if m.StretchP50 <= 0 {
		t.Fatalf("non-positive stretch median %g", m.StretchP50)
	}
	if !(m.BoundedSlowdownP50 <= m.BoundedSlowdownP95+1e-9 && m.BoundedSlowdownP95 <= m.BoundedSlowdownP99+1e-9) {
		t.Fatalf("bounded-slowdown percentiles out of order: %g %g %g",
			m.BoundedSlowdownP50, m.BoundedSlowdownP95, m.BoundedSlowdownP99)
	}
	if m.MeanBoundedSlowdown < 1 || m.BoundedSlowdownP50 < 1 {
		t.Fatalf("bounded slowdown below its floor of 1: mean %g, P50 %g", m.MeanBoundedSlowdown, m.BoundedSlowdownP50)
	}
	// The percentile stream must be monotone over batches: the last
	// snapshot is the final metrics.
	last := report.Batches[len(report.Batches)-1].Cumulative
	if last.StretchP99 != m.StretchP99 || last.BoundedSlowdownP99 != m.BoundedSlowdownP99 {
		t.Fatalf("final batch snapshot differs from the run metrics")
	}
}

func TestBoundedSlowdownFormula(t *testing.T) {
	for _, tc := range []struct {
		flow, pmin, want float64
	}{
		{10, 2, 5},    // ordinary job: flow over pmin
		{10, 0.1, 10}, // tiny job: the threshold caps the denominator
		{0.5, 2, 1},   // faster than its floor: slowdown is at least 1
		{3, 0, 3},     // zero pmin falls back to the threshold
	} {
		if got := BoundedSlowdown(tc.flow, tc.pmin); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("BoundedSlowdown(%g, %g) = %g, want %g", tc.flow, tc.pmin, got, tc.want)
		}
	}
}

// faultPlanWindows generates a node-crash plan for one m-processor cluster.
func faultPlanWindows(t testing.TB, m int, seed int64, mtbf, repair, horizon float64) []faults.Window {
	t.Helper()
	plan, err := faults.Generate(faults.Config{
		Seed: seed, Horizon: horizon, Clusters: []int{m}, MTBF: mtbf, RepairMean: repair,
	})
	if err != nil {
		t.Fatal(err)
	}
	return plan.ClusterWindows(0, m)
}

func TestFaultsEveryKilledJobEventuallyRescheduled(t *testing.T) {
	jobs := stream(t, 16, 100, 3, 4)
	eng, err := New(Config{
		M:       16,
		Perturb: noise(t, 0.2, 3),
		Outages: faultPlanWindows(t, 16, 3, 10, 4, 400),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.RunContext(t.Context(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	met := rep.Metrics
	if met.Killed == 0 {
		t.Fatal("hostile fault plan killed nothing; the scenario is vacuous")
	}
	if met.Jobs+met.Lost != len(jobs) {
		t.Fatalf("completed %d + lost %d != submitted %d", met.Jobs, met.Lost, len(jobs))
	}
	if met.Resubmitted != met.Killed-met.Lost {
		t.Fatalf("resubmitted %d != killed %d - lost %d", met.Resubmitted, met.Killed, met.Lost)
	}
	// Every killed-but-not-lost job completed: it was rescheduled.
	killedJobs := make(map[int]bool)
	for _, k := range rep.Kills {
		killedJobs[k.TaskID] = true
	}
	lost := make(map[int]bool)
	for _, id := range rep.Lost {
		lost[id] = true
	}
	completed := make(map[int]bool)
	for _, a := range rep.Schedule.Assignments {
		if completed[a.TaskID] {
			t.Fatalf("job %d completed twice", a.TaskID)
		}
		completed[a.TaskID] = true
	}
	recovered := 0
	for id := range killedJobs {
		if lost[id] {
			continue
		}
		if !completed[id] {
			t.Fatalf("killed job %d was never rescheduled to completion", id)
		}
		recovered++
	}
	if met.Recovered != recovered {
		t.Fatalf("metrics report %d recoveries, trace shows %d", met.Recovered, recovered)
	}
}

func TestFaultsZeroPlanBitIdentical(t *testing.T) {
	jobs := stream(t, 16, 60, 7, 3)
	base := Config{M: 16, Perturb: noise(t, 0.15, 7)}
	plain, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	repPlain, err := plain.RunContext(t.Context(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	withEmpty := base
	withEmpty.Outages = nil
	withEmpty.Replan = ReplanPolicy{Kind: ReplanCheckpoint, Credit: 0.5}
	withEmpty.MaxRetries = 3
	eng, err := New(withEmpty)
	if err != nil {
		t.Fatal(err)
	}
	repEmpty, err := eng.RunContext(t.Context(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(repPlain, repEmpty) {
		t.Fatal("a zero-fault configuration changed the report")
	}
}

func TestFaultsParallelVsSequentialBitIdentical(t *testing.T) {
	jobs := stream(t, 16, 80, 5, 4)
	base := Config{
		M:       16,
		Perturb: noise(t, 0.2, 5),
		Outages: faultPlanWindows(t, 16, 5, 12, 5, 400),
		Replan:  ReplanPolicy{Kind: ReplanCheckpoint},
		Reservations: []reservation.Reservation{
			{Name: "maint", Procs: 4, Start: 10, End: 25},
		},
	}
	run := func(sequential bool) *Report {
		cfg := base
		cfg.Sequential = sequential
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.RunContext(t.Context(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	seq := run(true)
	par := run(false)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("faulty parallel replay differs from sequential replay")
	}
	if seq.Metrics.Killed == 0 {
		t.Fatal("fault plan killed nothing; determinism check is vacuous")
	}
}

func TestFaultsCheckpointCreditsFinishedWork(t *testing.T) {
	// One long sequential job, killed once at t=6 of 10: the checkpoint
	// replan resubmits 40% of the work, the restart replan all of it.
	job := []Job{{Task: moldable.Task{ID: 1, Weight: 1, Times: []float64{10}}, Release: 0}}
	outage := []faults.Window{{Procs: []int{0}, Start: 6, End: 7}}
	run := func(replan ReplanPolicy) *Report {
		eng, err := New(Config{M: 1, Outages: outage, Replan: replan})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := eng.RunContext(t.Context(), job)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	restart := run(ReplanPolicy{Kind: ReplanRestart})
	checkpoint := run(ReplanPolicy{Kind: ReplanCheckpoint})
	half := run(ReplanPolicy{Kind: ReplanCheckpoint, Credit: 0.5})
	// Restart: killed at 6, replanned around the repair [6,7), full 10
	// units again -> done at 17.
	if m := restart.Metrics.Makespan; math.Abs(m-17) > 1e-9 {
		t.Fatalf("restart makespan %g, want 17", m)
	}
	// Full credit: 60% finished, 4 units remain -> done at 11.
	if m := checkpoint.Metrics.Makespan; math.Abs(m-11) > 1e-9 {
		t.Fatalf("checkpoint makespan %g, want 11", m)
	}
	// Half credit: scale 1 - 0.5*0.6 = 0.7 -> 7 units -> done at 14.
	if m := half.Metrics.Makespan; math.Abs(m-14) > 1e-9 {
		t.Fatalf("half-credit makespan %g, want 14", m)
	}
	for _, rep := range []*Report{restart, checkpoint, half} {
		if rep.Metrics.Killed != 1 || rep.Metrics.Recovered != 1 || rep.Metrics.Lost != 0 {
			t.Fatalf("unexpected fault counters %+v", rep.Metrics)
		}
	}
}

func TestFaultsMaxRetriesGivesUp(t *testing.T) {
	// The single processor dies every 2 units forever (within the
	// horizon), so a 10-unit restart-replanned job can never finish.
	var wins []faults.Window
	for t0 := 1.0; t0 < 400; t0 += 2 {
		wins = append(wins, faults.Window{Procs: []int{0}, Start: t0, End: t0 + 0.5})
	}
	eng, err := New(Config{M: 1, Outages: wins, MaxRetries: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.RunContext(t.Context(), []Job{{Task: moldable.Task{ID: 9, Weight: 1, Times: []float64{10}}, Release: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.Lost != 1 || rep.Metrics.Jobs != 0 {
		t.Fatalf("job should be lost after the retry budget: %+v", rep.Metrics)
	}
	if rep.Metrics.Killed != 5 {
		t.Fatalf("killed %d times, want MaxRetries+1 = 5", rep.Metrics.Killed)
	}
	if len(rep.Lost) != 1 || rep.Lost[0] != 9 {
		t.Fatalf("lost list %v, want [9]", rep.Lost)
	}
}

func TestFaultsConfigValidation(t *testing.T) {
	if _, err := New(Config{M: 4, Outages: []faults.Window{{Procs: []int{9}, Start: 1, End: 2}}}); err == nil {
		t.Fatal("outage outside the machine accepted")
	}
	if _, err := New(Config{M: 4, Outages: []faults.Window{{Procs: []int{0}, Start: 2, End: 2}}}); err == nil {
		t.Fatal("empty outage window accepted")
	}
	if _, err := New(Config{M: 4, Outages: []faults.Window{{Procs: []int{0}, Start: 2, End: math.NaN()}}}); err == nil {
		t.Fatal("NaN outage end accepted")
	}
	if _, err := New(Config{M: 4, Outages: []faults.Window{{Procs: []int{0}, Start: math.Inf(-1), End: 2}}}); err == nil {
		t.Fatal("infinite outage start accepted")
	}
	if _, err := New(Config{M: 4, MaxRetries: -1}); err == nil {
		t.Fatal("negative max retries accepted")
	}
	if _, err := New(Config{M: 4, Replan: ReplanPolicy{Kind: ReplanKind(9)}}); err == nil {
		t.Fatal("unknown replan kind accepted")
	}
	if _, err := New(Config{M: 4, Replan: ReplanPolicy{Credit: 1.5}}); err == nil {
		t.Fatal("out-of-range checkpoint credit accepted")
	}
	if _, err := ParseReplanKind("nope"); err == nil {
		t.Fatal("unknown replan name accepted")
	}
	if k, err := ParseReplanKind("checkpoint"); err != nil || k != ReplanCheckpoint {
		t.Fatalf("ParseReplanKind(checkpoint) = %v, %v", k, err)
	}
}
