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

// referenceGraham is the plain list loop: every event rebuilds the
// free-processor list from each processor's free time, scans the whole
// list and the whole release-date set. GrahamContext must return the same
// schedule, or the same error, on every input.
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

// matchReference requires GrahamContext to return the reference loop's
// schedule, or to fail with the reference's error.
func matchReference(t *testing.T, m int, items []Item) {
	t.Helper()
	want, wantErr := referenceGraham(m, items)
	got, err := GrahamContext(context.Background(), m, items)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("m=%d, n=%d: error %v, reference %v", m, len(items), err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("m=%d, n=%d: schedules differ\ngot  %v\nwant %v", m, len(items), got.Assignments, want.Assignments)
	}
}

// TestGrahamMatchesReference runs GrahamContext and the reference loop on
// random lists — release dates, items as wide as the machine, durations
// below Eps — and requires identical schedules. The wide machines put the
// idle set on several bitset words and the lists up to 400 items, in
// DEMT's shape (every release 0), with all-equal durations (completions
// tied in the end-time heap) and with sub-Eps durations (items that end at
// the event that starts them).
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
		matchReference(t, m, items)
	}
	for _, m := range []int{63, 64, 65, 128, 200} {
		for shape := 0; shape < 4; shape++ {
			for trial := 0; trial < 5; trial++ {
				items := make([]Item, r.Intn(401))
				for i := range items {
					it := Item{TaskID: i, NProcs: 1 + r.Intn(8), Duration: 0.1 + 10*r.Float64()}
					switch r.Intn(8) {
					case 0:
						it.NProcs = m
					case 1, 2:
						it.NProcs = 1 + r.Intn(m)
					}
					switch shape {
					case 1: // all-equal durations
						it.Duration = 1
					case 2: // narrow sub-Eps durations among ordinary ones
						if it.NProcs <= 8 && r.Intn(4) == 0 {
							it.Duration = moldable.Eps / 4
						}
					case 3: // staggered releases
						it.Release = float64(r.Intn(8))
					}
					items[i] = it
				}
				matchReference(t, m, items)
			}
		}
	}
}

// FuzzGraham decodes the input into a machine of up to 256 processors and
// a list of items, and requires GrahamContext to return the reference
// loop's schedule, or the reference's error. The first byte is m-1; every
// following 3 bytes are an item: its width (255 is the whole machine), its
// duration in sixteenths (0 is a sub-Eps duration) and its release date:
// the byte halved, in sixteenths, plus Eps/2 when the byte is odd.
func FuzzGraham(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := 1 + int(data[0])
		data = data[1:]
		items := make([]Item, min(len(data)/3, 400))
		for i := range items {
			w, d, r := data[3*i], data[3*i+1], data[3*i+2]
			it := Item{TaskID: i, NProcs: 1 + int(w)%m, Duration: float64(d) / 16}
			if w == 255 {
				it.NProcs = m
			}
			if d == 0 {
				it.Duration = moldable.Eps / 4
			}
			it.Release = float64(r>>1)/16 + float64(r&1)*moldable.Eps/2
			items[i] = it
		}
		matchReference(t, m, items)
	})
}
