package cluster_test

// This file holds the behaviour tests of the paper's on-line batch rule
// (section 2.2): jobs released during a batch wait for the next one, and
// each batch is scheduled off-line. The rule has one implementation, the
// cluster engine's batch-on-idle loop; these tests drive it through the
// engine's exported API with a one-member portfolio.

import (
	"context"
	"errors"
	"testing"

	"bicriteria/internal/baselines"
	"bicriteria/internal/cluster"
	"bicriteria/internal/core"
	"bicriteria/internal/moldable"
	"bicriteria/internal/schedule"
)

var (
	demt     = cluster.DEMTAlgorithm(&core.Options{Shuffles: 2})
	baseline = cluster.Algorithm{Name: "seq-lpt", Run: func(ctx context.Context, inst *moldable.Instance) (*schedule.Schedule, error) {
		return baselines.SequentialContext(ctx, moldable.NewTable(inst))
	}}
)

// scheduleOnline runs jobs on an m-processor batch-on-idle engine whose only
// portfolio member is alg, with exact execution.
func scheduleOnline(m int, jobs []cluster.Job, alg cluster.Algorithm) (*cluster.Report, error) {
	eng, err := cluster.New(cluster.Config{M: m, Portfolio: []cluster.Algorithm{alg}, Policy: cluster.BatchOnIdle()})
	if err != nil {
		return nil, err
	}
	s := eng.NewSession(context.Background())
	if err := s.Feed(jobs...); err != nil {
		return nil, err
	}
	return s.Finish()
}

func testJobs() []cluster.Job {
	return []cluster.Job{
		{Task: moldable.Task{ID: 0, Weight: 2, Times: []float64{6, 3.5, 2.6, 2.2}}, Release: 0},
		{Task: moldable.Sequential(1, 1, 2), Release: 0},
		{Task: moldable.Task{ID: 2, Weight: 3, Times: []float64{8, 4.5, 3.2, 2.5}}, Release: 1.5},
		{Task: moldable.Sequential(3, 4, 1), Release: 7},
		{Task: moldable.Task{ID: 4, Weight: 1, Times: []float64{4, 2.5}}, Release: 7.2},
	}
}

func releaseDates(jobs []cluster.Job) map[int]float64 {
	out := make(map[int]float64, len(jobs))
	for _, j := range jobs {
		out[j.Task.ID] = j.Release
	}
	return out
}

// validate checks the report's schedule against the jobs' off-line
// instance with their release dates.
func validate(t *testing.T, m int, jobs []cluster.Job, res *cluster.Report) {
	t.Helper()
	tasks := make([]moldable.Task, len(jobs))
	for i, j := range jobs {
		tasks[i] = j.Task
	}
	inst := moldable.NewInstance(m, tasks)
	if err := res.Schedule.Validate(inst, &schedule.ValidateOptions{ReleaseDates: releaseDates(jobs)}); err != nil {
		t.Fatalf("invalid on-line schedule: %v\n%s", err, res.Schedule.String())
	}
}

func TestOnlineBatchesRespectReleases(t *testing.T) {
	jobs := testJobs()
	res, err := scheduleOnline(4, jobs, demt)
	if err != nil {
		t.Fatal(err)
	}
	validate(t, 4, jobs, res)
	if len(res.Batches) < 2 {
		t.Fatalf("expected at least two batches, got %d", len(res.Batches))
	}
	// Batches are executed back to back or after an idle period, never
	// overlapping.
	for i := 1; i < len(res.Batches); i++ {
		prev := res.Batches[i-1]
		if res.Batches[i].FireTime < prev.FireTime+prev.RealizedMakespan-1e-9 {
			t.Fatalf("batch %d starts before batch %d finishes", i, i-1)
		}
	}
	if res.Metrics.Makespan <= 0 || res.Metrics.WeightedCompletion <= 0 || res.Metrics.MaxFlow <= 0 {
		t.Fatalf("metrics not filled: %+v", res.Metrics)
	}
	// A job released during batch 0 must not be part of batch 0.
	for _, id := range res.Batches[0].Jobs {
		if id == 2 && res.Batches[0].FireTime < 1.5 {
			t.Fatalf("job 2 (released at 1.5) scheduled in a batch starting at %g", res.Batches[0].FireTime)
		}
	}
}

func TestOnlineWithBaselineScheduler(t *testing.T) {
	jobs := testJobs()
	res, err := scheduleOnline(4, jobs, baseline)
	if err != nil {
		t.Fatal(err)
	}
	validate(t, 4, jobs, res)
}

func TestOnlineEdgeCases(t *testing.T) {
	if _, err := scheduleOnline(0, testJobs(), demt); err == nil {
		t.Fatalf("zero processors must fail")
	}
	if _, err := scheduleOnline(4, testJobs(), cluster.Algorithm{Name: "nil"}); err == nil {
		t.Fatalf("nil scheduler must fail")
	}
	res, err := scheduleOnline(4, nil, demt)
	if err != nil || len(res.Schedule.Assignments) != 0 {
		t.Fatalf("empty job list should give an empty schedule: %v %v", res, err)
	}
	bad := []cluster.Job{{Task: moldable.Task{ID: 0, Weight: 1}, Release: 0}}
	if _, err := scheduleOnline(4, bad, demt); err == nil {
		t.Fatalf("invalid task must fail")
	}
	neg := []cluster.Job{{Task: moldable.Sequential(0, 1, 1), Release: -1}}
	if _, err := scheduleOnline(4, neg, demt); err == nil {
		t.Fatalf("negative release must fail")
	}
	failing := cluster.Algorithm{Name: "failing", Run: func(context.Context, *moldable.Instance) (*schedule.Schedule, error) {
		return nil, errors.New("boom")
	}}
	if _, err := scheduleOnline(4, testJobs(), failing); err == nil {
		t.Fatalf("off-line scheduler failure must propagate")
	}
}

func TestOnlineIdlePeriodsBetweenBursts(t *testing.T) {
	jobs := []cluster.Job{
		{Task: moldable.Sequential(0, 1, 1), Release: 0},
		{Task: moldable.Sequential(1, 1, 1), Release: 100},
	}
	res, err := scheduleOnline(2, jobs, baseline)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != 2 {
		t.Fatalf("expected 2 batches, got %d", len(res.Batches))
	}
	if res.Batches[1].FireTime < 100 {
		t.Fatalf("second batch must wait for the release at 100, started at %g", res.Batches[1].FireTime)
	}
}

func TestOnlineMeanStretch(t *testing.T) {
	jobs := testJobs()
	res, err := scheduleOnline(4, jobs, demt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.MeanStretch < 1-1e-9 {
		t.Fatalf("mean stretch %g cannot be below 1", res.Metrics.MeanStretch)
	}
	// Recompute from the schedule: mean over jobs of flow / fastest time.
	releases := releaseDates(jobs)
	byID := make(map[int]moldable.Task, len(jobs))
	for _, j := range jobs {
		byID[j.Task.ID] = j.Task
	}
	sum := 0.0
	for _, a := range res.Schedule.Assignments {
		task := byID[a.TaskID]
		pmin, _ := task.MinTime()
		sum += (a.End() - releases[a.TaskID]) / pmin
	}
	want := sum / float64(len(jobs))
	if diff := res.Metrics.MeanStretch - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("mean stretch %g, recomputed %g", res.Metrics.MeanStretch, want)
	}
}
