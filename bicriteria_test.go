package bicriteria

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestFacadeEndToEnd exercises the public API the way a downstream user
// would: generate a workload, schedule it with DEMT and every baseline,
// compare against the lower bounds, simulate the execution and round-trip
// the instance through a JSON file.
func TestFacadeEndToEnd(t *testing.T) {
	inst, err := GenerateWorkload(WorkloadConfig{Kind: WorkloadCirne, M: 24, N: 30, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}

	res, err := DEMT(t.Context(), inst, &DEMTOptions{Shuffles: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(inst, nil); err != nil {
		t.Fatalf("DEMT schedule invalid: %v", err)
	}

	cmaxLB := MakespanLowerBound(inst)
	if res.Schedule.Makespan() < cmaxLB-1e-6 {
		t.Fatalf("makespan below its lower bound")
	}
	fastLB := MinsumLowerBoundFast(inst)
	if res.Schedule.WeightedCompletion(inst) < fastLB-1e-6 {
		t.Fatalf("minsum below its fast lower bound")
	}
	lpLB, err := MinsumLowerBoundLP(inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.WeightedCompletion(inst) < lpLB.Value-1e-6 {
		t.Fatalf("minsum below the LP lower bound")
	}
	if lpLB.Value < fastLB-1e-6 {
		t.Fatalf("LP bound should dominate the fast bound (it takes the max)")
	}

	for name, run := range map[string]func(context.Context, *Instance) (*Schedule, error){
		"gang":       Gang,
		"sequential": SequentialLPT,
		"list-shelf": func(ctx context.Context, i *Instance) (*Schedule, error) {
			return ListScheduling(ctx, i, ListShelfOrder)
		},
		"list-saf": func(ctx context.Context, i *Instance) (*Schedule, error) {
			return ListScheduling(ctx, i, ListSmallestAreaFirst)
		},
		"list-wlpt": func(ctx context.Context, i *Instance) (*Schedule, error) {
			return ListScheduling(ctx, i, ListWeightedLPT)
		},
	} {
		s, err := run(t.Context(), inst)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Validate(inst, nil); err != nil {
			t.Fatalf("%s: invalid schedule: %v", name, err)
		}
		if s.Makespan() < cmaxLB-1e-6 {
			t.Fatalf("%s: makespan below the lower bound", name)
		}
	}

	simRes, err := Simulate(inst, res.Schedule, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(simRes.Makespan-res.Schedule.Makespan()) > 1e-6 {
		t.Fatalf("simulated makespan differs from the plan")
	}

	path := filepath.Join(t.TempDir(), "w.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteInstance(f, inst); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := LoadInstance(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != inst.N() || back.M != inst.M {
		t.Fatalf("JSON round trip changed the instance shape")
	}
}

func TestFacadeTaskHelpers(t *testing.T) {
	seqTask := NewSequentialTask(0, 1, 2)
	perfect := NewPerfectlyMoldableTask(1, 1, 12, 4)
	inst := NewInstance(4, []Task{seqTask, perfect})
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	if inst.Tasks[0].Time(1) != 2 {
		t.Fatalf("sequential task should have p(1)=2")
	}
	if inst.Tasks[1].Time(4) != 3 {
		t.Fatalf("perfectly moldable task should have p(4)=3")
	}
	res, err := DEMT(t.Context(), inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(inst, nil); err != nil {
		t.Fatalf("DEMT schedule of the helpers' tasks invalid: %v", err)
	}
}

// TestFacadeNewInstanceNonPositiveM: a machine without processors is an
// error of Validate, not a panic of NewInstance.
func TestFacadeNewInstanceNonPositiveM(t *testing.T) {
	for _, m := range []int{-1, 0} {
		inst := NewInstance(m, []Task{NewSequentialTask(0, 1, 2)})
		want := fmt.Sprintf("moldable: instance needs at least one processor, got %d", m)
		if err := inst.Validate(); err == nil || err.Error() != want {
			t.Fatalf("m = %d: Validate gives %v, want %q", m, err, want)
		}
	}
}

// TestFacadePerfectlyMoldableNonPositiveProcs: a task without any
// allocation is an error of Validate, not a panic of its constructor.
func TestFacadePerfectlyMoldableNonPositiveProcs(t *testing.T) {
	for _, maxProcs := range []int{-1, 0} {
		inst := NewInstance(4, []Task{NewPerfectlyMoldableTask(3, 1, 8, maxProcs)})
		want := "moldable: task 3 has an empty processing-time vector"
		if err := inst.Validate(); err == nil || err.Error() != want {
			t.Fatalf("maxProcs = %d: Validate gives %v, want %q", maxProcs, err, want)
		}
	}
}

func TestFacadeOnline(t *testing.T) {
	jobs := []OnlineJob{
		{Task: NewSequentialTask(0, 1, 2), Release: 0},
		{Task: NewPerfectlyMoldableTask(1, 2, 8, 4), Release: 1},
		{Task: NewSequentialTask(2, 3, 1), Release: 5},
	}
	rep, err := RunGridContext(context.Background(), GridConfig{Clusters: []GridClusterSpec{{
		M:         4,
		Portfolio: []ClusterAlgorithm{ClusterDEMTAlgorithm(nil)},
		Policy:    BatchOnIdle(),
	}}}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Clusters[0]
	if len(res.Batches) < 2 {
		t.Fatalf("expected at least 2 batches")
	}
	if res.Metrics.Makespan <= 0 {
		t.Fatalf("missing makespan")
	}
}

func TestFacadeExperiment(t *testing.T) {
	cfg := ExperimentConfig{
		Workload:   WorkloadMixed,
		M:          12,
		TaskCounts: []int{6, 12},
		Runs:       2,
		Seed:       5,
	}
	cfg.Algorithms = append(cfg.Algorithms, "demt", "saf")
	res, err := RunExperiment(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 || res.Series[0].Algorithm != "demt" || res.Series[1].Algorithm != "saf" {
		t.Fatalf("experiment series %+v, want demt then saf", res.Series)
	}
	for _, series := range res.Series {
		if len(series.Points) != len(cfg.TaskCounts) {
			t.Fatalf("%s: %d points for %d task counts", series.Algorithm, len(series.Points), len(cfg.TaskCounts))
		}
	}
}

func TestFacadeParseWorkloadKind(t *testing.T) {
	k, err := ParseWorkloadKind("cirne")
	if err != nil || k != WorkloadCirne {
		t.Fatalf("ParseWorkloadKind failed: %v %v", k, err)
	}
}

func TestFacadeSaveLoad(t *testing.T) {
	dir := t.TempDir()
	inst, err := GenerateWorkload(WorkloadConfig{Kind: WorkloadHighlyParallel, M: 8, N: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := dir + "/w.json"
	if err := SaveInstance(path, inst); err != nil {
		t.Fatal(err)
	}
	back, err := LoadInstance(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 6 {
		t.Fatalf("loaded instance wrong")
	}
}
