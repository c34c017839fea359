package moldable

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }

func TestTaskTimeAndWork(t *testing.T) {
	task := Task{ID: 1, Weight: 2, Times: []float64{10, 6, 4.5, 4}}
	if got := task.Time(1); got != 10 {
		t.Fatalf("Time(1) = %g, want 10", got)
	}
	if got := task.Time(4); got != 4 {
		t.Fatalf("Time(4) = %g, want 4", got)
	}
	if got := task.Work(3); !almostEqual(got, 13.5) {
		t.Fatalf("Work(3) = %g, want 13.5", got)
	}
	if got := task.SeqTime(); got != 10 {
		t.Fatalf("SeqTime = %g, want 10", got)
	}
	if got := task.MaxProcs(); got != 4 {
		t.Fatalf("MaxProcs = %d, want 4", got)
	}
}

func TestTaskTimePanicsOutOfRange(t *testing.T) {
	task := Sequential(1, 1, 5)
	defer func() {
		if recover() == nil {
			t.Fatalf("Time(2) on a sequential task should panic")
		}
	}()
	task.Time(2)
}

func TestMinTimeMinWork(t *testing.T) {
	task := Task{ID: 1, Weight: 1, Times: []float64{10, 6, 5, 5}}
	p, k := task.MinTime()
	if p != 5 || k != 3 {
		t.Fatalf("MinTime = (%g,%d), want (5,3)", p, k)
	}
	w, k := task.MinWork()
	if w != 10 || k != 1 {
		t.Fatalf("MinWork = (%g,%d), want (10,1)", w, k)
	}
}

func TestMinAllocFitting(t *testing.T) {
	task := Task{ID: 1, Weight: 1, Times: []float64{10, 6, 4.5, 4}}
	cases := []struct {
		d    float64
		k    int
		fits bool
	}{
		{12, 1, true},
		{10, 1, true},
		{9.99, 2, true},
		{6, 2, true},
		{5, 3, true},
		{4, 4, true},
		{3.9, 0, false},
	}
	for _, c := range cases {
		k, ok := task.minAllocFitting(c.d)
		if ok != c.fits || k != c.k {
			t.Errorf("minAllocFitting(%g) = (%d,%v), want (%d,%v)", c.d, k, ok, c.k, c.fits)
		}
	}
}

func TestMinWorkFitting(t *testing.T) {
	// Non-monotonic on purpose: allocation 3 has smaller work than 2.
	task := Task{ID: 1, Weight: 1, Times: []float64{10, 6, 3.5}}
	k, w, ok := task.MinWorkFitting(7)
	if !ok || k != 3 || !almostEqual(w, 10.5) {
		t.Fatalf("MinWorkFitting(7) = (%d,%g,%v), want (3,10.5,true)", k, w, ok)
	}
	_, _, ok = task.MinWorkFitting(1)
	if ok {
		t.Fatalf("MinWorkFitting(1) should not fit")
	}
}

func TestSpeedupEfficiencyMonotonic(t *testing.T) {
	task := PerfectlyMoldable(1, 1, 12, 4)
	if got := task.SeqTime() / task.Time(4); !almostEqual(got, 4) {
		t.Fatalf("speedup on 4 processors = %g, want 4", got)
	}
	if !task.isMonotonic() {
		t.Fatalf("perfectly moldable task must be monotonic")
	}
	bad := Task{ID: 2, Weight: 1, Times: []float64{5, 7}}
	if bad.isMonotonic() {
		t.Fatalf("increasing processing times must not be monotonic")
	}
	badWork := Task{ID: 3, Weight: 1, Times: []float64{6, 2}}
	if badWork.isMonotonic() {
		t.Fatalf("decreasing work must not be monotonic")
	}
}

func TestTaskValidate(t *testing.T) {
	good := Task{ID: 1, Weight: 1, Times: []float64{3, 2}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid task rejected: %v", err)
	}
	for name, bad := range map[string]Task{
		"empty":      {ID: 1, Weight: 1},
		"negative":   {ID: 1, Weight: 1, Times: []float64{-1}},
		"zero":       {ID: 1, Weight: 1, Times: []float64{0}},
		"nan":        {ID: 1, Weight: 1, Times: []float64{math.NaN()}},
		"inf":        {ID: 1, Weight: 1, Times: []float64{math.Inf(1)}},
		"negw":       {ID: 1, Weight: -2, Times: []float64{1}},
		"nan weight": {ID: 1, Weight: math.NaN(), Times: []float64{1}},
		"inf weight": {ID: 1, Weight: math.Inf(1), Times: []float64{1}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("task %q should be invalid", name)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	task := Task{ID: 1, Weight: 1, Times: []float64{3, 2}}
	cp := task.Clone()
	cp.Times[0] = 99
	if task.Times[0] != 3 {
		t.Fatalf("Clone shares the Times slice")
	}
}

// rigid builds a task that must run on exactly procs processors: any
// smaller allocation gets an untouchable, very large processing time so
// that schedulers never pick it, and larger allocations are not offered.
func rigid(id int, weight float64, procs int, duration float64) Task {
	if procs < 1 {
		procs = 1
	}
	times := make([]float64, procs)
	for k := 0; k < procs-1; k++ {
		times[k] = duration * float64(procs) * 1e6
	}
	times[procs-1] = duration
	return Task{ID: id, Weight: weight, Times: times}
}

func TestRigidAndSequentialHelpers(t *testing.T) {
	r := rigid(7, 2, 4, 3)
	if got, _ := r.MinTime(); got != 3 {
		t.Fatalf("rigid MinTime = %g, want 3", got)
	}
	if k, ok := r.minAllocFitting(3); !ok || k != 4 {
		t.Fatalf("rigid minAllocFitting(3) = (%d,%v), want (4,true)", k, ok)
	}
	s := Sequential(8, 1, 2.5)
	if s.MaxProcs() != 1 || s.SeqTime() != 2.5 {
		t.Fatalf("sequential helper broken: %+v", s)
	}
}

func TestInstanceBasics(t *testing.T) {
	tasks := []Task{
		{ID: 0, Weight: 1, Times: []float64{4, 2.5}},
		{ID: 1, Weight: 3, Times: []float64{10, 6, 4, 3}},
		Sequential(2, 2, 1),
	}
	inst := NewInstance(3, tasks)
	if err := inst.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if inst.N() != 3 {
		t.Fatalf("N = %d, want 3", inst.N())
	}
	// NewInstance must truncate time vectors to M entries.
	if inst.Tasks[1].MaxProcs() != 3 {
		t.Fatalf("time vector not truncated to M: MaxProcs=%d", inst.Tasks[1].MaxProcs())
	}
	tab := NewTable(inst)
	if tab.Err != nil {
		t.Fatalf("table: %v", tab.Err)
	}
	if tab.TMin != 1 {
		t.Fatalf("TMin = %g, want 1", tab.TMin)
	}
	if tab.MaxMinTime != 4 {
		t.Fatalf("MaxMinTime = %g, want 4", tab.MaxMinTime)
	}
	if !almostEqual(tab.TotalMinWork, 4+10+1) {
		t.Fatalf("TotalMinWork = %g, want 15", tab.TotalMinWork)
	}
	if inst.Task(1) == nil || inst.Task(99) != nil {
		t.Fatalf("Task lookup broken")
	}
	for i := range inst.Tasks {
		if !inst.Tasks[i].isMonotonic() {
			t.Fatalf("task %d should be monotonic", i)
		}
	}
}

func TestInstanceValidateErrors(t *testing.T) {
	if err := (&Instance{M: 0, Tasks: []Task{Sequential(0, 1, 1)}}).Validate(); err == nil {
		t.Errorf("zero processors must be invalid")
	}
	if err := (&Instance{M: 2}).Validate(); err == nil {
		t.Errorf("empty task list must be invalid")
	}
	dup := &Instance{M: 2, Tasks: []Task{Sequential(0, 1, 1), Sequential(0, 1, 2)}}
	if err := dup.Validate(); err == nil {
		t.Errorf("duplicate IDs must be invalid")
	}
	long := &Instance{M: 1, Tasks: []Task{{ID: 0, Weight: 1, Times: []float64{2, 1}}}}
	if err := long.Validate(); err == nil {
		t.Errorf("time vector longer than M must be invalid")
	}
}

// randomMonotonicTask builds a random monotonic task for property tests.
func randomMonotonicTask(r *rand.Rand, id, m int) Task {
	seq := 1 + 9*r.Float64()
	times := make([]float64, m)
	times[0] = seq
	for k := 2; k <= m; k++ {
		x := r.Float64()
		times[k-1] = times[k-2] * (x + float64(k)) / (1 + float64(k))
	}
	return Task{ID: id, Weight: 1 + 9*r.Float64(), Times: times}
}

func TestPropertyRecurrenceTasksAreMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 2 + r.Intn(31)
		task := randomMonotonicTask(r, 0, m)
		if err := task.Validate(); err != nil {
			return false
		}
		return task.isMonotonic()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMinAllocFittingIsMinimal(t *testing.T) {
	f := func(seed int64, dseed uint8) bool {
		r := rand.New(rand.NewSource(seed))
		task := randomMonotonicTask(r, 0, 2+r.Intn(15))
		d := 0.5 + float64(dseed)/16.0
		k, ok := task.minAllocFitting(d)
		if !ok {
			// No allocation fits: every processing time must exceed d.
			for c := 1; c <= task.MaxProcs(); c++ {
				if task.Time(c) <= d {
					return false
				}
			}
			return true
		}
		if task.Time(k) > d+Eps {
			return false
		}
		for c := 1; c < k; c++ {
			if task.Time(c) <= d-Eps {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMinWorkFittingNeverWorseThanMinAlloc(t *testing.T) {
	f := func(seed int64, dseed uint8) bool {
		r := rand.New(rand.NewSource(seed))
		task := randomMonotonicTask(r, 0, 2+r.Intn(15))
		d := 0.5 + float64(dseed)/16.0
		ka, oka := task.minAllocFitting(d)
		kw, w, okw := task.MinWorkFitting(d)
		if oka != okw {
			return false
		}
		if !oka {
			return true
		}
		if task.Time(kw) > d+Eps {
			return false
		}
		return w <= task.Work(ka)+Eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// isMonotonic reports whether the task follows the usual moldable-task
// monotony assumptions: processing times are non-increasing and work is
// non-decreasing with the number of processors.
func (t *Task) isMonotonic() bool {
	for k := 2; k <= len(t.Times); k++ {
		if t.Times[k-1] > t.Times[k-2]+Eps {
			return false
		}
		if t.Work(k) < t.Work(k-1)-Eps {
			return false
		}
	}
	return true
}
