package listsched

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"bicriteria/internal/moldable"
	"bicriteria/internal/schedule"
)

// validate converts the list-scheduler output into a full schedule check by
// building a matching instance whose every allocation takes the item's
// duration.
func validate(t *testing.T, m int, items []Item, s *schedule.Schedule) {
	t.Helper()
	tasks := make([]moldable.Task, len(items))
	rel := make(map[int]float64)
	for i, it := range items {
		tasks[i] = moldable.Task{ID: it.TaskID, Weight: 1, Times: slices.Repeat([]float64{it.Duration}, it.NProcs)}
		rel[it.TaskID] = it.Release
	}
	inst := moldable.NewInstance(m, tasks)
	if err := s.Validate(inst, &schedule.ValidateOptions{ReleaseDates: rel}); err != nil {
		t.Fatalf("invalid schedule: %v\n%s", err, s.String())
	}
}

func TestGrahamSimple(t *testing.T) {
	items := []Item{
		{TaskID: 0, NProcs: 2, Duration: 4},
		{TaskID: 1, NProcs: 2, Duration: 3},
		{TaskID: 2, NProcs: 4, Duration: 2},
		{TaskID: 3, NProcs: 1, Duration: 1},
	}
	s, err := GrahamContext(t.Context(), 4, items)
	if err != nil {
		t.Fatal(err)
	}
	validate(t, 4, items, s)
	// Tasks 0 and 1 run in parallel; task 3 backfills at time 3 on the
	// processors freed by task 1; task 2 needs all 4 so waits for time 4.
	if a := s.Assignment(0); a.Start != 0 {
		t.Fatalf("task 0 start = %g, want 0", a.Start)
	}
	if a := s.Assignment(1); a.Start != 0 {
		t.Fatalf("task 1 start = %g, want 0", a.Start)
	}
	if a := s.Assignment(3); a.Start != 3 {
		t.Fatalf("task 3 start = %g, want 3 (backfilled)", a.Start)
	}
	if a := s.Assignment(2); a.Start != 4 {
		t.Fatalf("task 2 start = %g, want 4", a.Start)
	}
	if got := s.Makespan(); got != 6 {
		t.Fatalf("makespan = %g, want 6", got)
	}
}

func TestGrahamRespectsReleaseDates(t *testing.T) {
	items := []Item{
		{TaskID: 0, NProcs: 1, Duration: 2, Release: 5},
		{TaskID: 1, NProcs: 1, Duration: 2, Release: 0},
	}
	s, err := GrahamContext(t.Context(), 2, items)
	if err != nil {
		t.Fatal(err)
	}
	validate(t, 2, items, s)
	if a := s.Assignment(0); a.Start != 5 {
		t.Fatalf("task 0 start = %g, want 5", a.Start)
	}
	if a := s.Assignment(1); a.Start != 0 {
		t.Fatalf("task 1 start = %g, want 0", a.Start)
	}
}

func TestGrahamEmptyAndErrors(t *testing.T) {
	s, err := GrahamContext(t.Context(), 3, nil)
	if err != nil || len(s.Assignments) != 0 {
		t.Fatalf("empty input should give an empty schedule, got %v, %v", s, err)
	}
	if _, err := GrahamContext(t.Context(), 0, []Item{{TaskID: 0, NProcs: 1, Duration: 1}}); err == nil {
		t.Fatalf("zero processors must fail")
	}
	if _, err := GrahamContext(t.Context(), 2, []Item{{TaskID: 0, NProcs: 3, Duration: 1}}); err == nil {
		t.Fatalf("oversized task must fail")
	}
	if _, err := GrahamContext(t.Context(), 2, []Item{{TaskID: 0, NProcs: 1, Duration: -1}}); err == nil {
		t.Fatalf("negative duration must fail")
	}
	if _, err := GrahamContext(t.Context(), 2, []Item{{TaskID: 0, NProcs: 1, Duration: 1, Release: -2}}); err == nil {
		t.Fatalf("negative release must fail")
	}
	if _, err := InsertionWithReservations(2, nil, []Item{{TaskID: 0, NProcs: 3, Duration: 1}}); err == nil {
		t.Fatalf("insertion with oversized task must fail")
	}
	for _, tc := range []struct {
		name    string
		release float64
	}{
		{"nan release", math.NaN()},
		{"inf release", math.Inf(1)},
	} {
		items := []Item{{TaskID: 0, NProcs: 1, Duration: 1}, {TaskID: 7, NProcs: 1, Duration: 1, Release: tc.release}}
		if _, err := GrahamContext(t.Context(), 2, items); err == nil || !strings.Contains(err.Error(), "item 7") {
			t.Errorf("Graham, %s: error %v, want one naming item 7", tc.name, err)
		}
		if _, err := InsertionWithReservations(2, nil, items); err == nil || !strings.Contains(err.Error(), "item 7") {
			t.Errorf("InsertionWithReservations, %s: error %v, want one naming item 7", tc.name, err)
		}
	}
}

func TestInsertionFillsHoles(t *testing.T) {
	// Task 0 occupies both processors [0,4). Task 1 occupies processor 0 in
	// [4,10). Task 2 (1 proc, 3 units) should slot at time 4 on processor 1,
	// and task 3 (2 procs) must wait until time 10.
	items := []Item{
		{TaskID: 0, NProcs: 2, Duration: 4},
		{TaskID: 1, NProcs: 1, Duration: 6},
		{TaskID: 2, NProcs: 1, Duration: 3},
		{TaskID: 3, NProcs: 2, Duration: 1},
	}
	s, err := InsertionWithReservations(2, nil, items)
	if err != nil {
		t.Fatal(err)
	}
	validate(t, 2, items, s)
	if a := s.Assignment(2); a.Start != 4 {
		t.Fatalf("task 2 start = %g, want 4", a.Start)
	}
	if a := s.Assignment(3); a.Start != 10 {
		t.Fatalf("task 3 start = %g, want 10", a.Start)
	}
}

func TestInsertionStrictOrderVsGrahamGreedy(t *testing.T) {
	// With insertion in list order, the big task is placed before the small
	// ones even though the small ones could start earlier; Graham would also
	// start the small ones at 0. Here both behave the same because
	// insertion fills the hole before the big task too. Check a case where
	// they differ: big task first in the list, machine busy by a long seq.
	items := []Item{
		{TaskID: 0, NProcs: 1, Duration: 10},
		{TaskID: 1, NProcs: 2, Duration: 2},
		{TaskID: 2, NProcs: 1, Duration: 9},
	}
	g, err := GrahamContext(t.Context(), 2, items)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := InsertionWithReservations(2, nil, items)
	if err != nil {
		t.Fatal(err)
	}
	validate(t, 2, items, g)
	validate(t, 2, items, ins)
	// Graham: task2 backfills at t=0 on processor 1 (task1 can't start), so
	// task1 starts at 10. Insertion: task1 is placed before task2 is
	// considered, so task1 starts at 10 as well and task2 starts at 12... no:
	// insertion places task1 at its earliest feasible time given only task0,
	// which is 10; then task2 goes into the hole [0,10) on processor 1.
	if a := g.Assignment(2); a.Start != 0 {
		t.Fatalf("Graham should backfill task 2 at 0, got %g", a.Start)
	}
	if a := ins.Assignment(2); a.Start != 0 {
		t.Fatalf("Insertion should place task 2 in the hole at 0, got %g", a.Start)
	}
	if g.Makespan() != 12 || ins.Makespan() != 12 {
		t.Fatalf("makespans = %g, %g, want 12, 12", g.Makespan(), ins.Makespan())
	}
}

func randomItems(r *rand.Rand, m int) []Item {
	n := 1 + r.Intn(40)
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			TaskID:   i,
			NProcs:   1 + r.Intn(m),
			Duration: 0.1 + 10*r.Float64(),
			Release:  float64(r.Intn(3)) * 2.5,
		}
	}
	return items
}

func TestPropertyGrahamProducesValidSchedules(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(16)
		items := randomItems(r, m)
		s, err := GrahamContext(t.Context(), m, items)
		if err != nil {
			return false
		}
		return checkQuick(m, items, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyInsertionProducesValidSchedules(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(16)
		items := randomItems(r, m)
		s, err := InsertionWithReservations(m, nil, items)
		if err != nil {
			return false
		}
		return checkQuick(m, items, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyGrahamTwoApproxBound(t *testing.T) {
	// Greedy list bound for rigid tasks without release dates: while a
	// task of width at most m/2 waits, at least half the machine is busy;
	// once only wider tasks wait, the narrower ones still running end
	// within the longest duration, and the wide ones cannot overlap, so
	// Cmax <= 2*totalWork/m + 2*longest. And Cmax >= max(totalWork/m,
	// longest). Check both sides.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(16)
		items := randomItems(r, m)
		for i := range items {
			items[i].Release = 0
		}
		s, err := GrahamContext(t.Context(), m, items)
		if err != nil {
			return false
		}
		work, longest := 0.0, 0.0
		for _, it := range items {
			work += float64(it.NProcs) * it.Duration
			if it.Duration > longest {
				longest = it.Duration
			}
		}
		lb := work / float64(m)
		if longest > lb {
			lb = longest
		}
		cmax := s.Makespan()
		return cmax >= lb-1e-6 && cmax <= 2*work/float64(m)+2*longest+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// checkQuick is a lighter-weight validity check used inside property tests.
func checkQuick(m int, items []Item, s *schedule.Schedule) bool {
	if len(s.Assignments) != len(items) {
		return false
	}
	byID := make(map[int]Item, len(items))
	for _, it := range items {
		byID[it.TaskID] = it
	}
	type span struct{ start, end float64 }
	perProc := make(map[int][]span)
	for _, a := range s.Assignments {
		it, ok := byID[a.TaskID]
		if !ok || a.NProcs != it.NProcs || a.Start < it.Release-1e-9 || len(a.Procs) != it.NProcs {
			return false
		}
		for _, p := range a.Procs {
			if p < 0 || p >= m {
				return false
			}
			perProc[p] = append(perProc[p], span{a.Start, a.End()})
		}
	}
	for _, spans := range perProc {
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				if spans[i].start < spans[j].end-1e-9 && spans[j].start < spans[i].end-1e-9 {
					return false
				}
			}
		}
	}
	return true
}
