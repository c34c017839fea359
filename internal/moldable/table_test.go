package moldable

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// TestTableMatchesTaskScan checks NewTable against the task-level scans it
// replaces: its error against Instance.Validate's, its aggregates against
// sums of Task.MinTime and Task.MinWork in instance order, bit for bit, and
// MinAlloc and MinWork against Task.minAllocFitting and
// Task.MinWorkFitting on deadlines at, around and between every task's
// processing times. The draws include non-monotone vectors, flat runs,
// sub-Eps steps, single entries, NaN, ±Inf, zero and negative times,
// invalid weights, duplicate IDs, vectors longer than M and empty ones.
func TestTableMatchesTaskScan(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	searched, scanned, invalid := 0, 0, 0
	for trial := 0; trial < 1000; trial++ {
		inst := randomTableInstance(r)
		tab := checkTable(t, inst)
		if tab.Err != nil {
			invalid++
		}
		for i := range inst.Tasks {
			if tab.searchable[i] {
				searched++
			} else {
				scanned++
			}
		}
	}
	if searched == 0 || scanned == 0 || invalid == 0 || invalid == 1000 {
		t.Fatalf("the draw must exercise every path: %d searched, %d scanned, %d invalid instances", searched, scanned, invalid)
	}
}

// FuzzTable decodes an instance from the fuzzer's bytes (the machine size,
// then per task an ID, a weight and up to eight times, every float taken
// raw from eight bytes) and holds NewTable to the task scans.
func FuzzTable(f *testing.F) {
	for _, seed := range fuzzTableSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkTable(t, decodeTableInstance(data))
	})
}

// checkTable builds the table of inst and compares it with the scans.
func checkTable(t *testing.T, inst *Instance) *Table {
	t.Helper()
	tab := NewTable(inst)
	if tab.Inst != inst {
		t.Fatalf("table of %p describes %p", inst, tab.Inst)
	}
	want := inst.Validate()
	if (tab.Err == nil) != (want == nil) || (want != nil && tab.Err.Error() != want.Error()) {
		t.Fatalf("instance %+v: table error %v, Validate %v", inst, tab.Err, want)
	}
	tmin, maxMin, sumMin, totalWork := math.Inf(1), 0.0, 0.0, 0.0
	for i := range inst.Tasks {
		p, _ := inst.Tasks[i].MinTime()
		w, _ := inst.Tasks[i].MinWork()
		if p < tmin {
			tmin = p
		}
		if p > maxMin {
			maxMin = p
		}
		sumMin += p
		totalWork += w
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{{"TMin", tab.TMin, tmin}, {"MaxMinTime", tab.MaxMinTime, maxMin}, {"SumMinTime", tab.SumMinTime, sumMin}, {"TotalMinWork", tab.TotalMinWork, totalWork}} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Fatalf("instance %+v: %s = %v, scan %v", inst, c.name, c.got, c.want)
		}
	}
	for i := range inst.Tasks {
		task := &inst.Tasks[i]
		deadlines := []float64{0, -1, 1e-12, math.Inf(1), math.Inf(-1), math.NaN(), 1e9, math.MaxFloat64}
		for _, p := range task.Times {
			deadlines = append(deadlines, p, p-Eps, p-2*Eps, p+Eps/2, p-Eps/2, p*(1+1e-3), p*(1-1e-3))
		}
		for _, d := range deadlines {
			wantK, wantOK := task.minAllocFitting(d)
			if k, ok := tab.MinAlloc(i, d); k != wantK || ok != wantOK {
				t.Fatalf("task %v (searchable %v), d=%v: MinAlloc = %d,%v, scan %d,%v", task.Times, tab.searchable[i], d, k, ok, wantK, wantOK)
			}
			_, wantW, wantOK := task.MinWorkFitting(d)
			if w, ok := tab.MinWork(i, d); math.Float64bits(w) != math.Float64bits(wantW) || ok != wantOK {
				t.Fatalf("task %v (searchable %v), d=%v: MinWork = %v,%v, scan %v,%v", task.Times, tab.searchable[i], d, w, ok, wantW, wantOK)
			}
		}
	}
	return tab
}

// randomTableInstance draws a mostly valid instance whose tasks mix every
// shape of time vector the fit queries must handle.
func randomTableInstance(r *rand.Rand) *Instance {
	m := []int{1, 2, 3, 8, 16, 200}[r.Intn(6)]
	if r.Intn(40) == 0 {
		m = -r.Intn(2) // no processor
	}
	tasks := make([]Task, r.Intn(10))
	for i := range tasks {
		id := i
		switch r.Intn(20) {
		case 0:
			id = r.Intn(i + 1) // maybe a duplicate
		case 1:
			id = 1000 - i // decreasing IDs, no duplicate
		}
		weight := 1 + 9*r.Float64()
		if r.Intn(60) == 0 {
			weight = []float64{math.NaN(), math.Inf(1), -1, 0}[r.Intn(4)]
		}
		n := 1 + r.Intn(max(m, 1))
		if r.Intn(30) == 0 {
			n = m + 1 + r.Intn(3) // longer than M
		}
		if r.Intn(60) == 0 {
			n = 0
		}
		tasks[i] = Task{ID: id, Weight: weight, Times: randomTimes(r, n)}
	}
	return &Instance{M: m, Tasks: tasks}
}

// randomTimes draws a time vector of n entries: monotone, flat, with
// sub-Eps wiggles, with increases, with bad values, or any mix; or a
// perfectly moldable one whose work dips at one allocation by just under
// or just over Eps, the edge of the binary search's work test.
func randomTimes(r *rand.Rand, n int) []float64 {
	times := make([]float64, n)
	p := 1 + 100*r.Float64()
	if r.Intn(5) == 0 {
		for k := range times {
			times[k] = p / float64(k+1)
		}
		if n > 1 {
			k := 1 + r.Intn(n-1)
			dip := Eps * (0.2 + 0.6*r.Float64())
			if r.Intn(2) == 0 {
				dip = Eps * (1.5 + 10*r.Float64())
			}
			times[k] = (p - dip) / float64(k+1)
		}
		return times
	}
	for k := range times {
		switch r.Intn(10) {
		case 0: // flat run
		case 1: // sub-Eps step either way
			p += (r.Float64() - 0.5) * Eps
		case 2: // increase
			p *= 1 + r.Float64()
		case 3: // work drop: a step faster than linear speedup
			p = p * float64(k) / float64(k+1) * (1 - 0.01*r.Float64())
		default: // ordinary monotone step
			p *= 0.5 + 0.5*r.Float64()
		}
		times[k] = p
		if r.Intn(150) == 0 {
			times[k] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -p}[r.Intn(5)]
		}
	}
	return times
}

// decodeTableInstance reads the fuzzer's bytes: byte 0 is the machine
// size (as a signed byte), then every task takes an ID byte, a weight and
// a count byte followed by up to eight times, each float 8 raw bytes.
// Bytes running out end the instance.
func decodeTableInstance(data []byte) *Instance {
	inst := &Instance{}
	if len(data) == 0 {
		return inst
	}
	inst.M, data = int(int8(data[0])), data[1:]
	float := func() (float64, bool) {
		if len(data) < 8 {
			return 0, false
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		return f, true
	}
	for len(data) >= 2 {
		id := int(data[0])
		data = data[1:]
		weight, ok := float()
		if !ok || len(data) == 0 {
			break
		}
		n := int(data[0] % 9)
		data = data[1:]
		task := Task{ID: id, Weight: weight}
		for range n {
			p, ok := float()
			if !ok {
				break
			}
			task.Times = append(task.Times, p)
		}
		inst.Tasks = append(inst.Tasks, task)
	}
	return inst
}

// fuzzTableSeeds encodes a few instances in decodeTableInstance's layout:
// a monotone task, a non-monotone one, bad values and a duplicate ID.
func fuzzTableSeeds() [][]byte {
	encode := func(m int8, tasks ...Task) []byte {
		b := []byte{byte(m)}
		for _, t := range tasks {
			b = append(b, byte(t.ID))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.Weight))
			b = append(b, byte(len(t.Times)))
			for _, p := range t.Times {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p))
			}
		}
		return b
	}
	return [][]byte{
		encode(4, Task{ID: 0, Weight: 1, Times: []float64{8, 4.5, 3.2, 2.5}}, Task{ID: 1, Weight: 2, Times: []float64{3}}),
		encode(3, Task{ID: 0, Weight: 1, Times: []float64{5, 7, 2}}, Task{ID: 1, Weight: 1, Times: []float64{6, 2}}),
		encode(2, Task{ID: 0, Weight: 1, Times: []float64{math.NaN(), 1}}, Task{ID: 1, Weight: -1, Times: []float64{math.Inf(1), 0}}),
		encode(1, Task{ID: 3, Weight: 1, Times: []float64{1, 1}}, Task{ID: 3, Weight: 1, Times: []float64{1}}),
		encode(8, Task{ID: 0, Weight: 1, Times: []float64{1e308, 0.9e308}}, Task{ID: 1, Weight: 1, Times: []float64{1, 1 - Eps/2, 1 - Eps}}),
		encode(0),
	}
}
