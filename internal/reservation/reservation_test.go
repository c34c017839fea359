package reservation

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"bicriteria/internal/core"
	"bicriteria/internal/moldable"
	"bicriteria/internal/workload"
)

func testInstance() *moldable.Instance {
	return moldable.NewInstance(6, []moldable.Task{
		{ID: 0, Weight: 2, Times: []float64{8, 4.5, 3.2, 2.5, 2.1, 1.9}},
		{ID: 1, Weight: 1, Times: []float64{6, 3.5, 2.6, 2.2, 2.0, 1.9}},
		{ID: 2, Weight: 3, Times: []float64{2, 1.2}},
		{ID: 3, Weight: 1, Times: []float64{1.5}},
		{ID: 4, Weight: 4, Times: []float64{10, 5.5, 4, 3.1, 2.7, 2.4}},
	})
}

func TestReservationValidateAndString(t *testing.T) {
	good := Reservation{Name: "maintenance", Procs: 2, Start: 1, End: 3}
	if err := good.Validate(4); err != nil {
		t.Fatalf("valid reservation rejected: %v", err)
	}
	if !strings.Contains(good.String(), "maintenance") {
		t.Fatalf("String() missing name: %s", good.String())
	}
	if !strings.Contains((Reservation{Procs: 1, Start: 0, End: 1}).String(), "reservation") {
		t.Fatalf("default name missing")
	}
	bad := []Reservation{
		{Procs: 0, Start: 0, End: 1},
		{Procs: 5, Start: 0, End: 1},
		{Procs: 1, Start: 2, End: 2},
		{Procs: 1, Start: -1, End: 1},
	}
	for i, r := range bad {
		if err := r.Validate(4); err == nil {
			t.Errorf("reservation %d should be invalid", i)
		}
	}
}

func TestScheduleAroundReservations(t *testing.T) {
	inst := testInstance()
	reservations := []Reservation{
		{Name: "maintenance", Procs: 2, Start: 0, End: 4},
		{Name: "other-user", Procs: 3, Start: 6, End: 9},
	}
	res, err := Schedule(t.Context(), inst, reservations, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(inst, nil); err != nil {
		t.Fatalf("invalid schedule: %v\n%s", err, res.Schedule.String())
	}
	if err := ValidateAgainstReservations(res.Schedule, reservations, res.Blocked); err != nil {
		t.Fatalf("schedule violates a reservation: %v", err)
	}
	if len(res.Blocked) != 2 || len(res.Blocked[0]) != 2 || len(res.Blocked[1]) != 3 {
		t.Fatalf("blocked sets wrong: %v", res.Blocked)
	}
	if res.DEMT == nil || len(res.DEMT.Batches) == 0 {
		t.Fatalf("missing DEMT result")
	}
	// Scheduling around reservations can only delay completion compared to
	// the unreserved DEMT schedule.
	if res.Schedule.Makespan() < res.DEMT.Schedule.Makespan()-1e-6 {
		t.Fatalf("reserved schedule finishes earlier (%g) than the unreserved one (%g)",
			res.Schedule.Makespan(), res.DEMT.Schedule.Makespan())
	}
}

// TestScheduleOverlappingReservationsBlockDisjointProcessors is the
// regression test for two reservations over the same window: each must
// hold its own processors, so six are blocked on [0, 50), not three, and
// no job runs on any of them inside the window.
func TestScheduleOverlappingReservationsBlockDisjointProcessors(t *testing.T) {
	inst, err := workload.Generate(workload.Config{Kind: workload.Mixed, M: 8, N: 12, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	reservations := []Reservation{
		{Name: "a", Procs: 3, Start: 0, End: 50},
		{Name: "b", Procs: 3, Start: 0, End: 50},
	}
	res, err := Schedule(t.Context(), inst, reservations, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{7, 6, 5}, {4, 3, 2}}
	if !reflect.DeepEqual(res.Blocked, want) {
		t.Fatalf("blocked sets %v, want %v", res.Blocked, want)
	}
	if err := res.Schedule.Validate(inst, nil); err != nil {
		t.Fatalf("invalid schedule: %v", err)
	}
	for _, a := range res.Schedule.Assignments {
		if a.Start >= 50-1e-9 {
			continue
		}
		for _, p := range a.Procs {
			if p >= 2 {
				t.Fatalf("task %d runs on reserved processor %d during [0, 50)", a.TaskID, p)
			}
		}
	}
}

func TestScheduleWithoutReservationsMatchesPlainPlacement(t *testing.T) {
	inst := testInstance()
	res, err := Schedule(t.Context(), inst, nil, &Options{DEMT: &core.Options{Shuffles: 2, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(inst, nil); err != nil {
		t.Fatalf("invalid schedule: %v", err)
	}
}

func TestScheduleRejectsBadInput(t *testing.T) {
	inst := testInstance()
	if _, err := Schedule(t.Context(), &moldable.Instance{M: 0}, nil, nil); err == nil {
		t.Fatalf("invalid instance must fail")
	}
	if _, err := Schedule(t.Context(), inst, []Reservation{{Procs: 0, Start: 0, End: 1}}, nil); err == nil {
		t.Fatalf("invalid reservation must fail")
	}
	// Reserving the whole machine leaves nothing for the jobs.
	if _, err := Schedule(t.Context(), inst, []Reservation{{Procs: 6, Start: 0, End: 100}}, nil); err == nil {
		t.Fatalf("full-machine reservation must fail")
	}
	// Two overlapping reservations covering the machine together.
	full := []Reservation{
		{Procs: 3, Start: 0, End: 10},
		{Procs: 3, Start: 5, End: 15},
	}
	if _, err := Schedule(t.Context(), inst, full, nil); err == nil {
		t.Fatalf("reservations covering the whole machine must fail")
	}
}

func TestValidateAgainstReservationsDetectsViolations(t *testing.T) {
	inst := testInstance()
	reservations := []Reservation{{Procs: 2, Start: 0, End: 5}}
	res, err := Schedule(t.Context(), inst, reservations, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Force a violation: move one assignment onto a blocked processor.
	bad := res.Schedule.Clone()
	bad.Assignments[0].Start = 1
	bad.Assignments[0].Procs = []int{res.Blocked[0][0]}
	bad.Assignments[0].NProcs = 1
	// Only meaningful if the first assignment overlaps [0,5); ensure it.
	bad.Assignments[0].Duration = 2
	if err := ValidateAgainstReservations(bad, reservations, res.Blocked); err == nil {
		t.Fatalf("violation not detected")
	}
	if err := ValidateAgainstReservations(res.Schedule, reservations, nil); err == nil {
		t.Fatalf("mismatched blocked sets must fail")
	}
}

func TestPeakReserved(t *testing.T) {
	if got := peakReserved(nil); got != 0 {
		t.Fatalf("empty peak = %d", got)
	}
	rs := []Reservation{
		{Procs: 2, Start: 0, End: 10},
		{Procs: 3, Start: 5, End: 8},
		{Procs: 1, Start: 20, End: 30},
	}
	if got := peakReserved(rs); got != 5 {
		t.Fatalf("peak = %d, want 5", got)
	}
	// Back-to-back reservations do not stack.
	adj := []Reservation{
		{Procs: 2, Start: 0, End: 5},
		{Procs: 2, Start: 5, End: 10},
	}
	if got := peakReserved(adj); got != 2 {
		t.Fatalf("adjacent peak = %d, want 2", got)
	}
}

func TestPropertyReservedSchedulesAlwaysRespectReservations(t *testing.T) {
	f := func(seed int64, procsRaw, lenRaw uint8) bool {
		inst, err := workload.Generate(workload.Config{Kind: workload.Mixed, M: 8, N: 10, Seed: seed})
		if err != nil {
			return false
		}
		procs := 1 + int(procsRaw)%4
		length := 1 + float64(lenRaw%16)
		reservations := []Reservation{
			{Procs: procs, Start: 2, End: 2 + length},
			{Procs: 2, Start: 2 + length + 1, End: 2 + length + 4},
		}
		res, err := Schedule(t.Context(), inst, reservations, &Options{DEMT: &core.Options{Shuffles: 1}})
		if err != nil {
			return false
		}
		if err := res.Schedule.Validate(inst, nil); err != nil {
			return false
		}
		return ValidateAgainstReservations(res.Schedule, reservations, res.Blocked) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
