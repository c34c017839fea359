package core

import (
	"math/rand"
	"testing"

	"bicriteria/internal/lowerbound"
	"bicriteria/internal/moldable"
)

// randomMonotoneInstance draws a random moldable instance: machine sizes
// in [2, 16], task counts in [1, 20], and per-task time vectors that
// respect the monotony assumptions (non-increasing times, non-decreasing
// work) by construction.
func randomMonotoneInstance(r *rand.Rand) *moldable.Instance {
	m := 2 + r.Intn(15)
	n := 1 + r.Intn(20)
	tasks := make([]moldable.Task, n)
	for i := range tasks {
		maxK := 1 + r.Intn(m)
		times := make([]float64, maxK)
		times[0] = 0.5 + 9.5*r.Float64()
		for k := 2; k <= maxK; k++ {
			// Speedup factor per extra processor in (1, k/(k-1)]: keeps
			// p(k) <= p(k-1) and k*p(k) >= (k-1)*p(k-1).
			lo := float64(k-1) / float64(k)
			frac := lo + (1-lo)*r.Float64()
			times[k-1] = times[k-2] * frac
		}
		tasks[i] = moldable.Task{ID: i, Weight: 0.1 + 5*r.Float64(), Times: times}
	}
	return moldable.NewInstance(m, tasks)
}

// TestPropertyDEMTSchedulesValidAndAboveLowerBound is the seeded
// quickcheck-style core invariant: across randomized moldable instances
// the DEMT schedule is structurally feasible (capacity never exceeded at
// any instant, one placement per task, durations match allotments — all
// checked by Validate's event sweep) and its makespan never beats the
// instance's makespan lower bound.
func TestPropertyDEMTSchedulesValidAndAboveLowerBound(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		inst := randomMonotoneInstance(r)
		res, err := ScheduleContext(t.Context(), inst, &Options{Seed: int64(trial)})
		if err != nil {
			t.Fatalf("trial %d (m=%d, n=%d): %v", trial, inst.M, len(inst.Tasks), err)
		}
		if err := res.Schedule.Validate(inst, nil); err != nil {
			t.Fatalf("trial %d: invalid schedule: %v", trial, err)
		}
		lb := lowerbound.Makespan(inst)
		if cmax := res.Schedule.Makespan(); cmax < lb-1e-6*(1+lb) {
			t.Fatalf("trial %d: makespan %g beats the lower bound %g", trial, cmax, lb)
		}
	}
}

// TestPropertyDEMTRespectsPerProcessorExclusivity re-checks, independently
// of Validate, that no processor ever runs two tasks at once in a DEMT
// schedule (the property the simulator's dispatch loop builds on).
func TestPropertyDEMTRespectsPerProcessorExclusivity(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		inst := randomMonotoneInstance(r)
		res, err := ScheduleContext(t.Context(), inst, &Options{Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		type span struct{ start, end float64 }
		perProc := make(map[int][]span)
		for _, a := range res.Schedule.Assignments {
			if len(a.Procs) != a.NProcs {
				t.Fatalf("trial %d: task %d without explicit processors", trial, a.TaskID)
			}
			for _, p := range a.Procs {
				perProc[p] = append(perProc[p], span{a.Start, a.End()})
			}
		}
		for p, spans := range perProc {
			for i := range spans {
				for j := i + 1; j < len(spans); j++ {
					a, b := spans[i], spans[j]
					if a.start < b.end-1e-9 && b.start < a.end-1e-9 {
						t.Fatalf("trial %d: processor %d runs two tasks simultaneously", trial, p)
					}
				}
			}
		}
	}
}
