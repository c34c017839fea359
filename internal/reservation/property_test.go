package reservation

import (
	"math/rand"
	"slices"
	"testing"

	"bicriteria/internal/core"
	"bicriteria/internal/moldable"
)

// randomMonotoneTasks draws monotone moldable tasks for an m-processor
// machine (non-increasing times, non-decreasing work).
func randomMonotoneTasks(r *rand.Rand, m, n int) []moldable.Task {
	tasks := make([]moldable.Task, n)
	for i := range tasks {
		maxK := 1 + r.Intn(m)
		times := make([]float64, maxK)
		times[0] = 0.5 + 8*r.Float64()
		for k := 2; k <= maxK; k++ {
			lo := float64(k-1) / float64(k)
			times[k-1] = times[k-2] * (lo + (1-lo)*r.Float64())
		}
		tasks[i] = moldable.Task{ID: i, Weight: 0.5 + 2*r.Float64(), Times: times}
	}
	return tasks
}

// TestPropertyReservationsNeverPreempted is the seeded quickcheck-style
// reservation invariant: across randomized instances and randomized
// reservation sets, the reservation-aware scheduler produces a feasible
// schedule that never touches a reserved processor inside its window —
// reservations are inviolable, jobs flow around them — and reservations
// that overlap in time hold disjoint processors.
func TestPropertyReservationsNeverPreempted(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		m := 4 + r.Intn(13)
		inst := moldable.NewInstance(m, randomMonotoneTasks(r, m, 1+r.Intn(12)))

		// One to three reservations, each leaving at least one processor
		// free at its peak (the scheduler's own feasibility requirement).
		nRes := 1 + r.Intn(3)
		reservations := make([]Reservation, 0, nRes)
		budget := m - 1
		for i := 0; i < nRes && budget > 0; i++ {
			procs := 1 + r.Intn(budget)
			budget -= procs
			start := 10 * r.Float64()
			reservations = append(reservations, Reservation{
				Procs: procs,
				Start: start,
				End:   start + 0.5 + 10*r.Float64(),
			})
		}

		res, err := Schedule(t.Context(), inst, reservations, &Options{DEMT: &core.Options{Shuffles: 1, Seed: int64(trial)}})
		if err != nil {
			t.Fatalf("trial %d (m=%d, %d reservations): %v", trial, m, len(reservations), err)
		}
		if err := res.Schedule.Validate(inst, nil); err != nil {
			t.Fatalf("trial %d: schedule infeasible: %v", trial, err)
		}
		if err := ValidateAgainstReservations(res.Schedule, reservations, res.Blocked); err != nil {
			t.Fatalf("trial %d: a job preempts a reservation: %v", trial, err)
		}
		// Temporally overlapping reservations must block disjoint
		// processors, or fewer processors are held than were reserved.
		for i, a := range reservations {
			for j := i + 1; j < len(reservations); j++ {
				b := reservations[j]
				if a.Start >= b.End-1e-9 || b.Start >= a.End-1e-9 {
					continue
				}
				for _, p := range res.Blocked[i] {
					if slices.Contains(res.Blocked[j], p) {
						t.Fatalf("trial %d: overlapping reservations %d and %d both block processor %d (%v, %v)",
							trial, i, j, p, res.Blocked[i], res.Blocked[j])
					}
				}
			}
		}
		// Independent overlap re-check against the blocked processors, so
		// the property does not rest solely on the library's validator.
		for ri, res2 := range reservations {
			blocked := make(map[int]bool)
			for _, p := range res.Blocked[ri] {
				blocked[p] = true
			}
			for _, a := range res.Schedule.Assignments {
				if a.Start < res2.End-1e-9 && a.End() > res2.Start+1e-9 {
					for _, p := range a.Procs {
						if blocked[p] {
							t.Fatalf("trial %d: task %d runs on reserved processor %d inside [%g, %g)",
								trial, a.TaskID, p, res2.Start, res2.End)
						}
					}
				}
			}
		}
	}
}
