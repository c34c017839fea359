package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"bicriteria/internal/core"
	"bicriteria/internal/moldable"
	"bicriteria/internal/schedule"
	"bicriteria/internal/workload"
)

func testInstance() *moldable.Instance {
	return moldable.NewInstance(4, []moldable.Task{
		{ID: 0, Weight: 2, Times: []float64{8, 5, 4, 3.5}},
		{ID: 1, Weight: 1, Times: []float64{4, 2.5}},
		{ID: 2, Weight: 3, Times: []float64{6, 3.5, 2.5, 2}},
	})
}

func plannedSchedule() *schedule.Schedule {
	s := schedule.New(4)
	s.Add(schedule.Assignment{TaskID: 0, Start: 0, NProcs: 2, Procs: []int{0, 1}, Duration: 5})
	s.Add(schedule.Assignment{TaskID: 1, Start: 0, NProcs: 1, Procs: []int{2}, Duration: 4})
	s.Add(schedule.Assignment{TaskID: 2, Start: 5, NProcs: 4, Procs: []int{0, 1, 2, 3}, Duration: 2})
	return s
}

func TestExecuteExactMatchesPlan(t *testing.T) {
	inst := testInstance()
	s := plannedSchedule()
	res, err := Execute(inst, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-s.Makespan()) > 1e-9 {
		t.Fatalf("realized makespan %g differs from planned %g", res.Makespan, s.Makespan())
	}
	if math.Abs(res.WeightedCompletion-s.WeightedCompletion(inst)) > 1e-9 {
		t.Fatalf("realized minsum differs from planned")
	}
	if res.Delayed != 0 {
		t.Fatalf("no task should be delayed in an exact execution")
	}
	if len(res.Traces) != 3 {
		t.Fatalf("expected 3 traces")
	}
	if u := res.Utilization(4); u <= 0 || u > 1 {
		t.Fatalf("utilization %g out of range", u)
	}
}

func TestExecuteWithPerturbationDelaysSuccessors(t *testing.T) {
	inst := testInstance()
	s := plannedSchedule()
	res, err := Execute(inst, s, &Options{
		Perturb: func(taskID int, planned float64) float64 {
			if taskID == 0 {
				return planned * 1.5 // task 0 runs 50% longer than estimated
			}
			return planned
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Task 2 uses the processors of task 0, so it must be delayed to 7.5.
	var trace2 *TaskTrace
	for i := range res.Traces {
		if res.Traces[i].TaskID == 2 {
			trace2 = &res.Traces[i]
		}
	}
	if trace2 == nil || math.Abs(trace2.Start-7.5) > 1e-9 || !trace2.Delayed {
		t.Fatalf("task 2 should be delayed to 7.5, got %+v", trace2)
	}
	if res.Delayed != 1 {
		t.Fatalf("exactly one task should be delayed, got %d", res.Delayed)
	}
	if res.Makespan <= s.Makespan() {
		t.Fatalf("perturbed makespan should exceed the planned one")
	}
}

func TestExecuteStrictModeRejectsDelays(t *testing.T) {
	inst := testInstance()
	s := plannedSchedule()
	_, err := Execute(inst, s, &Options{
		Strict: true,
		Perturb: func(taskID int, planned float64) float64 {
			if taskID == 0 {
				return planned * 2
			}
			return planned
		},
	})
	if err == nil {
		t.Fatalf("strict mode must reject a delayed start")
	}
	// Without perturbation strict mode accepts the valid plan.
	if _, err := Execute(inst, s, &Options{Strict: true}); err != nil {
		t.Fatalf("strict execution of a valid plan should pass: %v", err)
	}
}

func TestExecuteRejectsMalformedInput(t *testing.T) {
	inst := testInstance()
	s := plannedSchedule()
	s.M = 5
	if _, err := Execute(inst, s, nil); err == nil {
		t.Fatalf("machine mismatch must fail")
	}
	s = plannedSchedule()
	s.Assignments[0].TaskID = 99
	if _, err := Execute(inst, s, nil); err == nil {
		t.Fatalf("unknown task must fail")
	}
	s = plannedSchedule()
	s.Assignments[0].Procs = nil
	if _, err := Execute(inst, s, nil); err == nil {
		t.Fatalf("missing processor assignment must fail")
	}
	s = plannedSchedule()
	s.Assignments[0].Procs = []int{0, 9}
	if _, err := Execute(inst, s, nil); err == nil {
		t.Fatalf("out-of-range processor must fail")
	}
	s = plannedSchedule()
	if _, err := Execute(inst, s, &Options{Perturb: func(int, float64) float64 { return -1 }}); err == nil {
		t.Fatalf("invalid perturbed duration must fail")
	}
}

func TestPropertySimulatedDEMTSchedulesMatchPlanExactly(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		inst, err := workload.Generate(workload.Config{Kind: workload.HighlyParallel, M: 8 + r.Intn(8), N: 5 + r.Intn(20), Seed: seed})
		if err != nil {
			return false
		}
		res, err := core.ScheduleContext(t.Context(), inst, &core.Options{Shuffles: 2})
		if err != nil {
			return false
		}
		out, err := Execute(inst, res.Schedule, nil)
		if err != nil {
			return false
		}
		// Exact execution of a valid schedule never delays anything and
		// reproduces the planned metrics.
		return out.Delayed == 0 &&
			math.Abs(out.Makespan-res.Schedule.Makespan()) < 1e-6 &&
			math.Abs(out.WeightedCompletion-res.Schedule.WeightedCompletion(inst)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteDelaysPastBlockedWindows(t *testing.T) {
	inst := testInstance()
	s := plannedSchedule()
	// Processor 2 is reserved during [1, 6): task 1 (planned [0, 4) on proc
	// 2) would overlap, so it must be pushed past the window, and task 2
	// (all four processors) must in turn wait for it.
	res, err := Execute(inst, s, &Options{
		Blocked: []schedule.Window{{Procs: []int{2}, Start: 1, End: 6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Traces {
		for _, p := range tr.Procs {
			if p == 2 && tr.Start < 6-moldable.Eps && tr.End > 1+moldable.Eps {
				t.Fatalf("task %d runs on reserved processor 2 during [%g, %g)", tr.TaskID, tr.Start, tr.End)
			}
		}
		if tr.TaskID == 1 && math.Abs(tr.Start-6) > 1e-9 {
			t.Fatalf("task 1 should start at the window end 6, got %g", tr.Start)
		}
	}
	if res.Delayed == 0 {
		t.Fatalf("blocked windows should count as delays")
	}

	// Chained windows: pushing past the first must not land inside the
	// second.
	s = plannedSchedule()
	res, err = Execute(inst, s, &Options{
		Blocked: []schedule.Window{
			{Procs: []int{2}, Start: 1, End: 6},
			{Procs: []int{2}, Start: 6.5, End: 12},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Traces {
		if tr.TaskID == 1 && math.Abs(tr.Start-12) > 1e-9 {
			t.Fatalf("task 1 should cascade past both windows to 12, got %g", tr.Start)
		}
	}

	// Malformed windows are rejected.
	if _, err := Execute(inst, plannedSchedule(), &Options{Blocked: []schedule.Window{{Procs: []int{9}, Start: 0, End: 1}}}); err == nil {
		t.Fatalf("out-of-range blocked processor must fail")
	}
	if _, err := Execute(inst, plannedSchedule(), &Options{Blocked: []schedule.Window{{Procs: []int{0}, Start: 2, End: 2}}}); err == nil {
		t.Fatalf("empty blocked window must fail")
	}
}

func TestExecuteFailureKillsRunningTask(t *testing.T) {
	inst := testInstance()
	s := plannedSchedule()
	// Processor 1 crashes at t=2, while task 0 (procs 0,1 for [0,5)) runs.
	res, err := Execute(inst, s, &Options{
		Failures: []schedule.Window{{Procs: []int{1}, Start: 2, End: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Killed) != 1 {
		t.Fatalf("want 1 killed task, got %d", len(res.Killed))
	}
	k := res.Killed[0]
	if k.TaskID != 0 || k.Start != 0 || k.KilledAt != 2 || k.Duration != 5 {
		t.Fatalf("unexpected kill record %+v", k)
	}
	// The killed task completes nothing: no trace, no completion metrics.
	for _, tr := range res.Traces {
		if tr.TaskID == 0 {
			t.Fatal("killed task has a completion trace")
		}
	}
	// Its partial work still counts as busy (cycles were spent): 2 wasted
	// units on proc 0 plus task 2's 2 units, against task 2's bare 2 units
	// on proc 3.
	if res.BusyTime[0] != 4 || res.BusyTime[3] != 2 {
		t.Fatalf("wasted work not accounted: busy[0] = %g (want 4), busy[3] = %g (want 2)", res.BusyTime[0], res.BusyTime[3])
	}
	// Task 2 was planned at t=5 on all four procs; procs 0/1 freed at the
	// kill instant and the crash is repaired by then, so it still starts on
	// time.
	for _, tr := range res.Traces {
		if tr.TaskID == 2 && tr.Start != 5 {
			t.Fatalf("task 2 starts at %g, want 5", tr.Start)
		}
	}
}

func TestExecuteFailureDelaysDispatchOnDeadNode(t *testing.T) {
	inst := moldable.NewInstance(1, []moldable.Task{{ID: 7, Weight: 1, Times: []float64{2}}})
	s := schedule.New(1)
	s.Add(schedule.Assignment{TaskID: 7, Start: 1, NProcs: 1, Procs: []int{0}, Duration: 2})
	// The node is already down when the task should be dispatched: the
	// runtime holds it until the repair instead of killing it.
	res, err := Execute(inst, s, &Options{
		Failures: []schedule.Window{{Procs: []int{0}, Start: 0.5, End: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Killed) != 0 {
		t.Fatal("task dispatched onto a known-dead node should be delayed, not killed")
	}
	if len(res.Traces) != 1 || res.Traces[0].Start != 4 || !res.Traces[0].Delayed {
		t.Fatalf("unexpected trace %+v", res.Traces)
	}
}

func TestExecuteFailureChainsAcrossWindows(t *testing.T) {
	inst := moldable.NewInstance(1, []moldable.Task{{ID: 1, Weight: 1, Times: []float64{3}}})
	s := schedule.New(1)
	s.Add(schedule.Assignment{TaskID: 1, Start: 0, NProcs: 1, Procs: []int{0}, Duration: 3})
	// Killed at 1; the caller would resubmit. Within one Execute the task
	// dies once and is simply gone: a second window later must not matter.
	res, err := Execute(inst, s, &Options{
		Failures: []schedule.Window{
			{Procs: []int{0}, Start: 1, End: 2},
			{Procs: []int{0}, Start: 2.5, End: 2.6},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Killed) != 1 || res.Killed[0].KilledAt != 1 {
		t.Fatalf("want one kill at the earliest failure, got %+v", res.Killed)
	}
	if len(res.Traces) != 0 {
		t.Fatal("killed task completed")
	}
	if res.Makespan != 0 {
		t.Fatalf("makespan %g should only count completions", res.Makespan)
	}
}

func TestExecuteFailureValidation(t *testing.T) {
	inst := testInstance()
	s := plannedSchedule()
	if _, err := Execute(inst, s, &Options{
		Failures: []schedule.Window{{Procs: []int{0}, Start: 3, End: 3}},
	}); err == nil {
		t.Fatal("empty failure window accepted")
	}
	if _, err := Execute(inst, s, &Options{
		Failures: []schedule.Window{{Procs: []int{99}, Start: 1, End: 2}},
	}); err == nil {
		t.Fatal("failure window outside the machine accepted")
	}
}
