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

// matchReference requires GrahamContext, the event loop followed by the
// processor sweep, to return the reference loop's schedule, or to fail
// with the reference's error. When it succeeds, the (minsum, cmax) that
// Score reads off the loop's start times must equal the built schedule's
// WeightedCompletion and Makespan bit for bit, item i weighing
// weight(i).
func matchReference(t *testing.T, m int, items []Item, weight func(i int) float64) {
	t.Helper()
	want, wantErr := referenceGraham(m, items)
	got, err := GrahamContext(context.Background(), m, items)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("m=%d, n=%d: error %v, reference %v", m, len(items), err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("m=%d, n=%d: schedules differ\ngot  %v\nwant %v", m, len(items), got.Assignments, want.Assignments)
	}
	if err != nil {
		return
	}
	var l Loop
	placed, err := l.Place(context.Background(), m, items, nil)
	if err != nil {
		t.Fatalf("m=%d, n=%d: Place fails where GrahamContext does not: %v", m, len(items), err)
	}
	weights := make([]float64, len(items))
	tasks := make([]moldable.Task, len(items))
	for i, it := range items {
		weights[i] = weight(i)
		tasks[i] = moldable.Task{ID: it.TaskID, Weight: weights[i], Times: []float64{it.Duration}}
	}
	minsum, cmax := Score(items, placed, weights)
	wantMinsum, wantCmax := got.WeightedCompletion(moldable.NewInstance(m, tasks)), got.Makespan()
	if math.Float64bits(minsum) != math.Float64bits(wantMinsum) || math.Float64bits(cmax) != math.Float64bits(wantCmax) {
		t.Fatalf("m=%d, n=%d: Score gives (%v, %v), the schedule (%v, %v)", m, len(items), minsum, cmax, wantMinsum, wantCmax)
	}
}

// TestSubEpsStallMatchesReference pins the list loop's known stall: when
// every item running at an event ends within Eps of it and the next item
// needs their processors, the loop and the reference both fail with "no
// progress possible" on an idle machine.
func TestSubEpsStallMatchesReference(t *testing.T) {
	items := []Item{
		{TaskID: 0, NProcs: 1, Duration: moldable.Eps / 4},
		{TaskID: 1, NProcs: 1, Duration: moldable.Eps / 4},
		{TaskID: 2, NProcs: 2, Duration: 1},
	}
	want := "listsched: no progress possible at time 0 (1 items left)"
	if _, err := GrahamContext(t.Context(), 2, items); err == nil || err.Error() != want {
		t.Fatalf("GrahamContext gives %v, want %q", err, want)
	}
	matchReference(t, 2, items, func(int) float64 { return 1 })
}

// TestPlaceReuseMatchesReference lists random orders of shrinking and
// growing lists on one Loop, with the placement buffers of the last call
// handed back, as the shuffle compaction does: every schedule swept from
// the reused buffers must be the reference's.
func TestPlaceReuseMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	var l Loop
	var placed []Placement
	for trial := 0; trial < 200; trial++ {
		m := 1 + r.Intn(80)
		items := make([]Item, r.Intn(120))
		for i := range items {
			items[i] = Item{TaskID: i, NProcs: 1 + r.Intn(m), Duration: 0.1 + 10*r.Float64()}
			if r.Intn(3) == 0 {
				items[i].Release = float64(r.Intn(5))
			}
		}
		want, wantErr := referenceGraham(m, items)
		var err error
		if placed, err = l.Place(t.Context(), m, items, placed); fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("trial %d: error %v, reference %v", trial, err, wantErr)
		}
		if err != nil {
			continue
		}
		if got := l.Sweep(m, items, placed); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: schedules differ\ngot  %v\nwant %v", trial, got.Assignments, want.Assignments)
		}
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
		matchReference(t, m, items, func(i int) float64 { return float64(i%7) / 3 })
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
				matchReference(t, m, items, func(i int) float64 { return 0.1 + float64(i%11) })
			}
		}
	}
}

// FuzzGraham decodes the input into a machine of up to 256 processors and
// a list of items, and requires GrahamContext to return the reference
// loop's schedule, or the reference's error, and Score to read that
// schedule's weighted completion time and makespan off the start times
// bit for bit. The first byte is m-1; every following 3 bytes are an
// item: its width (255 is the whole machine), its duration in sixteenths
// (0 is a sub-Eps duration) and its release date: the byte halved, in
// sixteenths, plus Eps/2 when the byte is odd. Item i weighs its three
// bytes' sum in tenths.
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
		matchReference(t, m, items, func(i int) float64 {
			return float64(int(data[3*i])+int(data[3*i+1])+int(data[3*i+2])) / 10
		})
	})
}
