package online

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"bicriteria/internal/baselines"
	"bicriteria/internal/core"
	"bicriteria/internal/moldable"
	"bicriteria/internal/schedule"
	"bicriteria/internal/workload"
)

func demtOffline(inst *moldable.Instance) (*schedule.Schedule, error) {
	res, err := core.Schedule(inst, &core.Options{Shuffles: 2})
	if err != nil {
		return nil, err
	}
	return res.Schedule, nil
}

func testJobs() []Job {
	return []Job{
		{Task: moldable.Task{ID: 0, Weight: 2, Times: []float64{6, 3.5, 2.6, 2.2}}, Release: 0},
		{Task: moldable.Sequential(1, 1, 2), Release: 0},
		{Task: moldable.Task{ID: 2, Weight: 3, Times: []float64{8, 4.5, 3.2, 2.5}}, Release: 1.5},
		{Task: moldable.Sequential(3, 4, 1), Release: 7},
		{Task: moldable.Task{ID: 4, Weight: 1, Times: []float64{4, 2.5}}, Release: 7.2},
	}
}

func TestOnlineBatchesRespectReleases(t *testing.T) {
	jobs := testJobs()
	res, err := Schedule(4, jobs, demtOffline)
	if err != nil {
		t.Fatal(err)
	}
	// Build a matching off-line instance to run the validator with release
	// dates.
	tasks := make([]moldable.Task, len(jobs))
	for i, j := range jobs {
		tasks[i] = j.Task
	}
	inst := moldable.NewInstance(4, tasks)
	if err := res.Schedule.Validate(inst, &schedule.ValidateOptions{ReleaseDates: ReleaseDates(jobs)}); err != nil {
		t.Fatalf("invalid on-line schedule: %v\n%s", err, res.Schedule.String())
	}
	if len(res.Batches) < 2 {
		t.Fatalf("expected at least two batches, got %d", len(res.Batches))
	}
	// Batches are executed back to back or after an idle period, never
	// overlapping.
	for i := 1; i < len(res.Batches); i++ {
		prev := res.Batches[i-1]
		if res.Batches[i].Start < prev.Start+prev.Makespan-1e-9 {
			t.Fatalf("batch %d starts before batch %d finishes", i, i-1)
		}
	}
	if res.Makespan <= 0 || res.WeightedCompletion <= 0 || res.MaxFlow <= 0 {
		t.Fatalf("metrics not filled: %+v", res)
	}
	// A job released during batch 0 must not be part of batch 0.
	for _, id := range res.Batches[0].TaskIDs {
		if id == 2 && res.Batches[0].Start < 1.5 {
			t.Fatalf("job 2 (released at 1.5) scheduled in a batch starting at %g", res.Batches[0].Start)
		}
	}
}

func TestOnlineWithBaselineScheduler(t *testing.T) {
	jobs := testJobs()
	res, err := Schedule(4, jobs, baselines.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	tasks := make([]moldable.Task, len(jobs))
	for i, j := range jobs {
		tasks[i] = j.Task
	}
	inst := moldable.NewInstance(4, tasks)
	if err := res.Schedule.Validate(inst, &schedule.ValidateOptions{ReleaseDates: ReleaseDates(jobs)}); err != nil {
		t.Fatalf("invalid schedule: %v", err)
	}
}

func TestOnlineEdgeCases(t *testing.T) {
	if _, err := Schedule(0, testJobs(), demtOffline); err == nil {
		t.Fatalf("zero processors must fail")
	}
	if _, err := Schedule(4, testJobs(), nil); err == nil {
		t.Fatalf("nil scheduler must fail")
	}
	res, err := Schedule(4, nil, demtOffline)
	if err != nil || len(res.Schedule.Assignments) != 0 {
		t.Fatalf("empty job list should give an empty schedule: %v %v", res, err)
	}
	bad := []Job{{Task: moldable.Task{ID: 0, Weight: 1}, Release: 0}}
	if _, err := Schedule(4, bad, demtOffline); err == nil {
		t.Fatalf("invalid task must fail")
	}
	neg := []Job{{Task: moldable.Sequential(0, 1, 1), Release: -1}}
	if _, err := Schedule(4, neg, demtOffline); err == nil {
		t.Fatalf("negative release must fail")
	}
	failing := func(inst *moldable.Instance) (*schedule.Schedule, error) {
		return nil, fmt.Errorf("boom")
	}
	if _, err := Schedule(4, testJobs(), failing); err == nil {
		t.Fatalf("off-line scheduler failure must propagate")
	}
}

func TestOnlineIdlePeriodsBetweenBursts(t *testing.T) {
	jobs := []Job{
		{Task: moldable.Sequential(0, 1, 1), Release: 0},
		{Task: moldable.Sequential(1, 1, 1), Release: 100},
	}
	res, err := Schedule(2, jobs, baselines.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != 2 {
		t.Fatalf("expected 2 batches, got %d", len(res.Batches))
	}
	if res.Batches[1].Start < 100 {
		t.Fatalf("second batch must wait for the release at 100, started at %g", res.Batches[1].Start)
	}
}

func TestPropertyOnlineValidForRandomJobSets(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 4 + r.Intn(12)
		inst, err := workload.Generate(workload.Config{Kind: workload.Mixed, M: m, N: 5 + r.Intn(15), Seed: seed})
		if err != nil {
			return false
		}
		jobs := make([]Job, inst.N())
		for i := range inst.Tasks {
			jobs[i] = Job{Task: inst.Tasks[i], Release: float64(r.Intn(5)) * 3}
		}
		res, err := Schedule(m, jobs, demtOffline)
		if err != nil {
			return false
		}
		tasks := make([]moldable.Task, len(jobs))
		for i, j := range jobs {
			tasks[i] = j.Task
		}
		check := moldable.NewInstance(m, tasks)
		return res.Schedule.Validate(check, &schedule.ValidateOptions{ReleaseDates: ReleaseDates(jobs)}) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestOnlineMeanStretch(t *testing.T) {
	jobs := testJobs()
	res, err := Schedule(4, jobs, demtOffline)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanStretch < 1-1e-9 {
		t.Fatalf("mean stretch %g cannot be below 1", res.MeanStretch)
	}
	// Recompute from the schedule: mean over jobs of flow / fastest time.
	releases := ReleaseDates(jobs)
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
	if diff := res.MeanStretch - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("mean stretch %g, recomputed %g", res.MeanStretch, want)
	}
}

// TestTableForkIsolation checks the fork contract of Table: a fork reads
// its parent's jobs, rejects them as duplicates, and keeps its own feeds
// out of the parent.
func TestTableForkIsolation(t *testing.T) {
	job := func(id int) Job { return Job{Task: moldable.Sequential(id, 1, 2), Release: float64(id)} }
	fact := func(j *Job) float64 { return j.Release }
	parent := NewTable[float64]()
	if err := parent.Enroll("test", []Job{job(1), job(2)}, 0, fact); err != nil {
		t.Fatal(err)
	}
	fork := parent.Fork().Fork()
	if v, ok := fork.Get(2); !ok || v != 2 {
		t.Fatalf("fork reads job 2 as (%g, %t), want (2, true)", v, ok)
	}
	if err := fork.Enroll("test", []Job{job(3), job(1)}, 0, fact); err == nil {
		t.Fatal("fork accepted the parent's job 1 again")
	}
	if _, ok := fork.Get(3); ok {
		t.Fatal("a rejected Enroll left job 3 in the fork")
	}
	if err := fork.Enroll("test", []Job{job(3)}, 0, fact); err != nil {
		t.Fatal(err)
	}
	if _, ok := parent.Get(3); ok {
		t.Fatal("the fork's job 3 shows through to the parent")
	}
}

// TestMergeFuncKeepsFirstOnTies checks the merge order: by cmp, the first
// slice's element first among equals.
func TestMergeFuncKeepsFirstOnTies(t *testing.T) {
	type kv struct{ k, v int }
	byKey := func(a, b kv) int { return a.k - b.k }
	got := MergeFunc([]kv{{1, 0}, {3, 0}}, []kv{{1, 1}, {2, 1}, {3, 1}}, byKey)
	want := []kv{{1, 0}, {1, 1}, {2, 1}, {3, 0}, {3, 1}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("merged %v, want %v", got, want)
	}
}
