package cluster

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"bicriteria/internal/reservation"
	"bicriteria/internal/stats"
	"bicriteria/internal/workload"
)

// checkFinalTails recomputes the stretch and bounded-slowdown samples of
// every completed job from the batches' placements and the fed jobs, and
// holds the report's final Metrics to stats.TailSummary of them.
func checkFinalTails(t *testing.T, name string, rep *Report, jobs []Job) {
	t.Helper()
	byID := make(map[int]Job, len(jobs))
	for _, j := range jobs {
		byID[j.Task.ID] = j
	}
	var stretches, bslds []float64
	for _, br := range rep.Batches {
		for _, pl := range br.Placements {
			j := byID[pl.TaskID]
			pmin, _ := j.Task.MinTime()
			flow := pl.End - j.Release
			if pmin > 0 {
				stretches = append(stretches, flow/pmin)
			}
			bslds = append(bslds, BoundedSlowdown(flow, pmin))
		}
	}
	got := rep.Metrics
	st, bs := stats.TailSummary(stretches), stats.TailSummary(bslds)
	if got.MeanStretch != st.Mean || got.StretchP50 != st.P50 || got.StretchP95 != st.P95 || got.StretchP99 != st.P99 {
		t.Fatalf("%s: stretch mean/p50/p95/p99 %v %v %v %v, want %+v", name,
			got.MeanStretch, got.StretchP50, got.StretchP95, got.StretchP99, st)
	}
	if got.MeanBoundedSlowdown != bs.Mean || got.BoundedSlowdownP50 != bs.P50 || got.BoundedSlowdownP95 != bs.P95 || got.BoundedSlowdownP99 != bs.P99 {
		t.Fatalf("%s: bounded slowdown mean/p50/p95/p99 %v %v %v %v, want %+v", name,
			got.MeanBoundedSlowdown, got.BoundedSlowdownP50, got.BoundedSlowdownP95, got.BoundedSlowdownP99, bs)
	}
}

// TestCumulativeMatchesReference holds the accumulated metric samples to
// a from-scratch stats.TailSummary (checkFinalTails) on a noisy, faulted
// stream with a reservation, and on a fork finished after the session it
// was forked from: the two share their samples up to the fork, and
// neither side's later batches may show through to the other.
func TestCumulativeMatchesReference(t *testing.T) {
	const m, seed = 16, 28
	eng, err := New(Config{
		M:            m,
		Objective:    Objective{Kind: ObjectiveCombined, Alpha: 0.5},
		Perturb:      noise(t, 0.3, seed),
		Reservations: []reservation.Reservation{{Name: "maint", Procs: 4, Start: 10, End: 30}},
		Outages:      faultPlanWindows(t, m, seed, 20, 3, 1000),
		Replan:       ReplanPolicy{Kind: ReplanCheckpoint},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A light load, so that the batches stay small and many.
	arrivals, err := workload.GenerateArrivals(workload.ArrivalConfig{
		Workload: workload.Config{Kind: workload.Mixed, M: m, N: 150, Seed: seed},
		Rate:     0.5, BurstSize: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs := JobsFromArrivals(arrivals)
	full, err := replay(t.Context(), eng, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if full.Metrics.Killed == 0 || len(full.Batches) < 20 {
		t.Fatalf("the stream is too tame to test anything: %d kills, %d batches", full.Metrics.Killed, len(full.Batches))
	}
	checkFinalTails(t, "run", full, jobs)

	for _, cut := range []int{30, 60, 90, 120} {
		s := eng.NewSession(context.Background())
		if err := s.Feed(jobs...); err != nil {
			t.Fatal(err)
		}
		if err := s.AdvanceTo(jobs[cut].Release); err != nil {
			t.Fatal(err)
		}
		fork := s.Fork()
		parent, err := s.Finish()
		if err != nil {
			t.Fatal(err)
		}
		checkFinalTails(t, fmt.Sprintf("parent cut at job %d", cut), parent, jobs)
		forked, err := fork.Finish()
		if err != nil {
			t.Fatal(err)
		}
		checkFinalTails(t, fmt.Sprintf("fork cut at job %d", cut), forked, jobs)
		if !reflect.DeepEqual(forked, full) {
			t.Fatalf("cut at job %d: the fork, finished after its parent, differs from the offline replay", cut)
		}
	}
}
