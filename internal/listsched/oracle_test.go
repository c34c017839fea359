package listsched

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"bicriteria/internal/moldable"
	"bicriteria/internal/schedule"
)

// referenceGraham is the list loop as it stood before the scan windows and
// the reused buffers: every event rebuilds the free-processor list, scans
// the whole list and the whole release-date set. GrahamContext must return
// the same schedule on every input.
func referenceGraham(m int, items []Item) (*schedule.Schedule, error) {
	if err := validateItems(m, items); err != nil {
		return nil, err
	}
	sched := schedule.New(m)
	if len(items) == 0 {
		return sched, nil
	}
	freeAt := make([]float64, m)
	done := make([]bool, len(items))
	remaining := len(items)
	t := math.Inf(1)
	for _, it := range items {
		if it.Release < t {
			t = it.Release
		}
	}
	for remaining > 0 {
		var free []int
		for p, f := range freeAt {
			if f <= t+moldable.Eps {
				free = append(free, p)
			}
		}
		for i, it := range items {
			if done[i] || it.Release > t+moldable.Eps {
				continue
			}
			if it.NProcs <= len(free) {
				procs := append([]int(nil), free[:it.NProcs]...)
				free = free[it.NProcs:]
				for _, p := range procs {
					freeAt[p] = t + it.Duration
				}
				sched.Add(schedule.Assignment{TaskID: it.TaskID, Start: t, NProcs: it.NProcs, Procs: procs, Duration: it.Duration})
				done[i] = true
				remaining--
			}
		}
		if remaining == 0 {
			break
		}
		next := math.Inf(1)
		for _, f := range freeAt {
			if f > t+moldable.Eps && f < next {
				next = f
			}
		}
		for i, it := range items {
			if !done[i] && it.Release > t+moldable.Eps && it.Release < next {
				next = it.Release
			}
		}
		if math.IsInf(next, 1) {
			return nil, fmt.Errorf("listsched: no progress possible at time %g (%d items left)", t, remaining)
		}
		t = next
	}
	return sched, nil
}

// TestGrahamMatchesReference runs GrahamContext and the reference loop on
// random lists — release dates, items as wide as the machine, durations
// below Eps — and requires identical schedules.
func TestGrahamMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	for trial := 0; trial < 400; trial++ {
		m := 1 + r.Intn(24)
		n := r.Intn(60)
		items := make([]Item, n)
		for i := range items {
			it := Item{TaskID: 1000 - 3*i, NProcs: 1 + r.Intn(m), Duration: 0.1 + 10*r.Float64()}
			switch r.Intn(6) {
			case 0:
				it.NProcs = m
			case 1:
				it.Duration = moldable.Eps * r.Float64() / 2
			}
			if trial%2 == 1 {
				it.Release = float64(r.Intn(4)) * 2.5 * r.Float64()
			}
			items[i] = it
		}
		want, wantErr := referenceGraham(m, items)
		got, err := GrahamContext(context.Background(), m, items)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("trial %d: error %v, reference %v", trial, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (m=%d, n=%d): schedules differ\ngot  %v\nwant %v", trial, m, n, got.Assignments, want.Assignments)
		}
	}
}
