package schedule

import (
	"math"
	"strings"
	"testing"

	"bicriteria/internal/moldable"
)

func testInstance() *moldable.Instance {
	return moldable.NewInstance(4, []moldable.Task{
		{ID: 0, Weight: 2, Times: []float64{8, 5, 4, 3.5}},
		{ID: 1, Weight: 1, Times: []float64{4, 2.5}},
		{ID: 2, Weight: 3, Times: []float64{6, 3.5, 2.5, 2}},
	})
}

func feasibleSchedule() *Schedule {
	s := New(4)
	s.Add(Assignment{TaskID: 0, Start: 0, NProcs: 2, Procs: []int{0, 1}, Duration: 5})
	s.Add(Assignment{TaskID: 1, Start: 0, NProcs: 1, Procs: []int{2}, Duration: 4})
	s.Add(Assignment{TaskID: 2, Start: 5, NProcs: 4, Procs: []int{0, 1, 2, 3}, Duration: 2})
	return s
}

func TestMetrics(t *testing.T) {
	inst := testInstance()
	s := feasibleSchedule()
	if err := s.Validate(inst, nil); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := s.Makespan(); got != 7 {
		t.Fatalf("Makespan = %g, want 7", got)
	}
	// Weighted completion: task0 ends 5 (w=2), task1 ends 4 (w=1), task2 ends 7 (w=3).
	if got := s.WeightedCompletion(inst); got != 2*5+1*4+3*7 {
		t.Fatalf("WeightedCompletion = %g, want 35", got)
	}
	if got := s.sumCompletion(); got != 16 {
		t.Fatalf("sumCompletion = %g, want 16", got)
	}
	if got := s.totalWork(); got != 2*5+4+4*2 {
		t.Fatalf("totalWork = %g, want 22", got)
	}
	wantUtil := 22.0 / (7 * 4)
	if math.Abs(s.utilization()-wantUtil) > 1e-9 {
		t.Fatalf("Utilization = %g, want %g", s.utilization(), wantUtil)
	}
	if math.Abs(s.idleTime()-(28-22)) > 1e-9 {
		t.Fatalf("idleTime = %g, want 6", s.idleTime())
	}
	m := s.ComputeMetrics(inst)
	if m.Makespan != 7 || m.WeightedCompletion != 35 {
		t.Fatalf("ComputeMetrics inconsistent: %+v", m)
	}
}

func TestAssignmentLookup(t *testing.T) {
	s := feasibleSchedule()
	if a := s.Assignment(1); a == nil || a.NProcs != 1 {
		t.Fatalf("Assignment(1) = %+v", a)
	}
	if s.Assignment(42) != nil {
		t.Fatalf("Assignment(42) should be nil")
	}
}

func TestValidateCatchesMissingAndDuplicateTasks(t *testing.T) {
	inst := testInstance()
	s := feasibleSchedule()
	s.Assignments = s.Assignments[:2] // task 2 missing
	if err := s.Validate(inst, nil); err == nil {
		t.Fatalf("missing task must be rejected")
	}
	if err := s.Validate(inst, &ValidateOptions{AllowMissingTasks: true}); err != nil {
		t.Fatalf("AllowMissingTasks should accept a partial schedule: %v", err)
	}
	s = feasibleSchedule()
	s.Add(Assignment{TaskID: 0, Start: 8, NProcs: 1, Procs: []int{0}, Duration: 8})
	if err := s.Validate(inst, nil); err == nil {
		t.Fatalf("duplicate task must be rejected")
	}
}

func TestValidateCatchesBadDurationAllocationAndStart(t *testing.T) {
	inst := testInstance()

	s := feasibleSchedule()
	s.Assignments[0].Duration = 4.0 // p(2) is 5
	if err := s.Validate(inst, nil); err == nil {
		t.Fatalf("wrong duration must be rejected")
	}

	s = feasibleSchedule()
	s.Assignments[1].NProcs = 3 // task 1 offers only 2 allocations
	if err := s.Validate(inst, nil); err == nil {
		t.Fatalf("allocation above MaxProcs must be rejected")
	}

	s = feasibleSchedule()
	s.Assignments[0].Start = -1
	if err := s.Validate(inst, nil); err == nil {
		t.Fatalf("negative start must be rejected")
	}

	s = feasibleSchedule()
	s.Assignments[0].TaskID = 99
	if err := s.Validate(inst, nil); err == nil {
		t.Fatalf("unknown task must be rejected")
	}
}

func TestValidateCatchesCapacityViolation(t *testing.T) {
	inst := testInstance()
	s := New(4)
	// 2 + 1 + 4 = 7 > 4 processors at time 1.
	s.Add(Assignment{TaskID: 0, Start: 0, NProcs: 2, Duration: 5})
	s.Add(Assignment{TaskID: 1, Start: 0, NProcs: 1, Duration: 4})
	s.Add(Assignment{TaskID: 2, Start: 1, NProcs: 4, Duration: 2})
	if err := s.Validate(inst, nil); err == nil {
		t.Fatalf("capacity violation must be rejected")
	}
}

func TestValidateCatchesProcessorOverlapAndBadProcSets(t *testing.T) {
	inst := testInstance()

	s := feasibleSchedule()
	s.Assignments[1].Procs = []int{0} // overlaps task 0 on processor 0
	if err := s.Validate(inst, nil); err == nil {
		t.Fatalf("per-processor overlap must be rejected")
	}

	s = feasibleSchedule()
	s.Assignments[0].Procs = []int{0, 0}
	if err := s.Validate(inst, nil); err == nil {
		t.Fatalf("duplicate processor in a task must be rejected")
	}

	s = feasibleSchedule()
	s.Assignments[0].Procs = []int{0, 7}
	if err := s.Validate(inst, nil); err == nil {
		t.Fatalf("out-of-range processor must be rejected")
	}

	s = feasibleSchedule()
	s.Assignments[0].Procs = []int{0}
	if err := s.Validate(inst, nil); err == nil {
		t.Fatalf("processor list shorter than NProcs must be rejected")
	}
}

func TestValidateReleaseDates(t *testing.T) {
	inst := testInstance()
	s := feasibleSchedule()
	opts := &ValidateOptions{ReleaseDates: map[int]float64{1: 2.0}}
	if err := s.Validate(inst, opts); err == nil {
		t.Fatalf("start before release date must be rejected")
	}
	opts.ReleaseDates[1] = 0
	if err := s.Validate(inst, opts); err != nil {
		t.Fatalf("respecting release dates should pass: %v", err)
	}
}

func TestValidateMachineMismatch(t *testing.T) {
	inst := testInstance()
	s := feasibleSchedule()
	s.M = 5
	if err := s.Validate(inst, nil); err == nil {
		t.Fatalf("machine size mismatch must be rejected")
	}
}

func TestCapacityBackToBackTasksAllowed(t *testing.T) {
	// A task may start exactly when another finishes on the same processors.
	inst := moldable.NewInstance(2, []moldable.Task{
		moldable.Sequential(0, 1, 3),
		moldable.Sequential(1, 1, 3),
		{ID: 2, Weight: 1, Times: []float64{4, 2}},
	})
	s := New(2)
	s.Add(Assignment{TaskID: 0, Start: 0, NProcs: 1, Procs: []int{0}, Duration: 3})
	s.Add(Assignment{TaskID: 1, Start: 0, NProcs: 1, Procs: []int{1}, Duration: 3})
	s.Add(Assignment{TaskID: 2, Start: 3, NProcs: 2, Procs: []int{0, 1}, Duration: 2})
	if err := s.Validate(inst, nil); err != nil {
		t.Fatalf("back-to-back tasks should validate: %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := feasibleSchedule()
	cp := s.Clone()
	cp.Assignments[0].Procs[0] = 3
	cp.Assignments[0].Start = 100
	if s.Assignments[0].Procs[0] == 3 || s.Assignments[0].Start == 100 {
		t.Fatalf("Clone is shallow")
	}
}

func TestGanttAndString(t *testing.T) {
	s := feasibleSchedule()
	g := s.Gantt(40)
	if !strings.Contains(g, "P000") || !strings.Contains(g, "P003") {
		t.Fatalf("Gantt missing processor rows:\n%s", g)
	}
	if !strings.Contains(g, "makespan 7.000") {
		t.Fatalf("Gantt missing makespan header:\n%s", g)
	}
	str := s.String()
	if !strings.Contains(str, "task    2") {
		t.Fatalf("String missing task line:\n%s", str)
	}
	empty := New(3)
	if got := empty.Gantt(20); !strings.Contains(got, "empty") {
		t.Fatalf("empty Gantt = %q", got)
	}
}

func TestEmptyScheduleMetrics(t *testing.T) {
	s := New(3)
	if s.Makespan() != 0 || s.utilization() != 0 || s.idleTime() != 0 {
		t.Fatalf("empty schedule metrics should all be zero")
	}
}
