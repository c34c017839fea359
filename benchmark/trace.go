package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the harness into a layer's public function.
// Times are milliseconds since the tracer was created.
type span struct {
	Name    string  `json:"name"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
	// SelfMs is the duration minus the part the children cover; filled in
	// when the spans are written out.
	SelfMs   float64 `json:"self_ms"`
	Parent   int     `json:"parent"`
	Workload string  `json:"workload"`
	Rep      int     `json:"rep"`
}

// tracer keeps the spans of one traced run in memory and writes them out
// when the run ends. A nil tracer records nothing: the workloads call it
// unconditionally and the untraced run pays one nil check per call.
//
// begin/end nest through a stack and belong to the harness goroutine;
// add attaches an already-timed interval (a Timing-hook phase, an observer
// callback gap) under the innermost open span and may be called from any
// goroutine.
type tracer struct {
	mu       sync.Mutex
	workload string
	origin   time.Time
	spans    []span
	open     []int
	rep      int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: wall.Now()}
}

// setRep tags the spans recorded from now on with a repetition number.
func (t *tracer) setRep(rep int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rep = rep
	t.mu.Unlock()
}

func (t *tracer) parentLocked() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	now := wall.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, StartMs: ms(now.Sub(t.origin)), EndMs: -1,
		Parent: t.parentLocked(), Workload: t.workload, Rep: t.rep,
	})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned. Spans close in LIFO order.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := wall.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndMs = ms(now.Sub(t.origin))
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = t.open[:i]
			break
		}
	}
}

// add records a closed interval as a child of the innermost open span.
func (t *tracer) add(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, StartMs: ms(start.Sub(t.origin)), EndMs: ms(end.Sub(t.origin)),
		Parent: t.parentLocked(), Workload: t.workload, Rep: t.rep,
	})
}

// selfTimes returns every span's duration minus the part of its interval
// its children cover. Children may overlap each other (concurrent shards
// report under one parent), so the covered part is the union of their
// intervals clipped to the parent, not their sum.
func selfTimes(spans []span) []float64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi float64 }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := spans[c].StartMs, spans[c].EndMs
			if lo < s.StartMs {
				lo = s.StartMs
			}
			if hi > s.EndMs {
				hi = s.EndMs
			}
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, reach := 0.0, s.StartMs
		for _, v := range ivs {
			if v.hi <= reach {
				continue
			}
			if v.lo > reach {
				reach = v.lo
			}
			covered += v.hi - reach
			reach = v.hi
		}
		self[i] = (s.EndMs - s.StartMs) - covered
	}
	return self
}

// perRep sums, for every repetition, the durations of the spans with the
// given name, and returns the sums ordered by repetition.
func (t *tracer) perRep(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	byRep := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == name && s.EndMs >= 0 {
			byRep[s.Rep] += s.EndMs - s.StartMs
		}
	}
	reps := make([]int, 0, len(byRep))
	for r := range byRep {
		reps = append(reps, r)
	}
	sort.Ints(reps)
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = byRep[r]
	}
	return out
}

// total is the median over repetitions of the summed span durations: "the
// time this layer took in one pass".
func (t *tracer) total(name string) float64 { return orZero(median(t.perRep(name))) }

// write dumps the spans, self times filled in, as JSON lines.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, self := range selfTimes(t.spans) {
		t.spans[i].SelfMs = self
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// overheadShare is the cost of tracing: traced over untraced time of the
// same operation, minus 1. It compares the fastest repetition of each: what
// a neighbour on the machine adds to one side or the other is not the
// tracer's doing.
func overheadShare(tracedMs, plainMs []float64) float64 {
	if len(tracedMs) == 0 || len(plainMs) == 0 {
		return 0
	}
	return sorted(tracedMs)[0]/sorted(plainMs)[0] - 1
}
