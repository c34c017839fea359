package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSelfTimeSubtractsTheUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", StartMs: 0, EndMs: 100, Parent: -1},
		{Name: "a", StartMs: 10, EndMs: 40, Parent: 0},
		{Name: "b", StartMs: 30, EndMs: 60, Parent: 0},  // overlaps a: union [10,60]
		{Name: "c", StartMs: 90, EndMs: 120, Parent: 0}, // clipped to [90,100]
		{Name: "d", StartMs: 35, EndMs: 38, Parent: 0},  // inside the union already
		{Name: "grandchild", StartMs: 12, EndMs: 20, Parent: 1},
	}
	self := selfTimes(spans)
	want := []float64{100 - 50 - 10, 30 - 8, 30, 30, 3, 8}
	for i := range want {
		if math.Abs(self[i]-want[i]) > 1e-9 {
			t.Errorf("self time of %s = %g, want %g", spans[i].Name, self[i], want[i])
		}
	}
}

// fakeClock advances only when told to, or when something sleeps on it.
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time { return c.t }
func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.t) {
		c.t = t
	}
}
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// withClock swaps the harness clock for the test's.
func withClock(t *testing.T, c clock) {
	old := wall
	wall = c
	t.Cleanup(func() { wall = old })
}

func TestTracerNestsSpansAndSumsPerRep(t *testing.T) {
	clk := &fakeClock{t: time.Unix(100, 0)}
	withClock(t, clk)
	tr := newTracer("w")
	for rep := 0; rep < 2; rep++ {
		tr.setRep(rep)
		outer := tr.begin("outer")
		clk.advance(2 * time.Millisecond)
		inner := tr.begin("inner")
		clk.advance(5 * time.Millisecond)
		tr.end(inner)
		// A hook-reported phase that ended now and took 1 ms.
		tr.add("phase", clk.Now().Add(-time.Millisecond), clk.Now())
		clk.advance(3 * time.Millisecond)
		tr.end(outer)
	}
	if got := tr.perRep("outer"); len(got) != 2 || got[0] != 10 || got[1] != 10 {
		t.Fatalf("outer per rep = %v, want [10 10]", got)
	}
	if tr.total("inner") != 5 || tr.total("phase") != 1 {
		t.Fatalf("inner total %g, phase total %g", tr.total("inner"), tr.total("phase"))
	}
	if tr.spans[1].Parent != 0 || tr.spans[2].Parent != 0 || tr.spans[0].Parent != -1 {
		t.Fatalf("parents = %d %d %d", tr.spans[0].Parent, tr.spans[1].Parent, tr.spans[2].Parent)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 6 {
		t.Fatalf("%d span lines written, want 6", lines)
	}
	// inner covers [2,7] of outer's [0,10], the phase [6,7] lies inside it.
	if tr.spans[0].SelfMs != 5 || !strings.Contains(string(data), `"self_ms":5`) {
		t.Fatalf("outer self time written as %g, want 5", tr.spans[0].SelfMs)
	}

	// The disabled tracer accepts every call.
	var off *tracer
	off.setRep(1)
	off.end(off.begin("x"))
	off.add("y", clk.Now(), clk.Now())
	if off.total("x") != 0 || off.write(path) != nil {
		t.Fatal("nil tracer must be inert")
	}
}

func TestPacerKeepsTheScheduleAndAccountsLateness(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	start := clk.Now().Add(10 * time.Millisecond)
	p := newPacer(clk, start, 30*time.Millisecond, 4)
	// Per operation: how long the "request" takes once released.
	service := []time.Duration{5 * time.Millisecond, 70 * time.Millisecond, 5 * time.Millisecond, 5 * time.Millisecond}
	var latency []float64
	for {
		i, due, ok := p.next()
		if !ok {
			break
		}
		if want := start.Add(time.Duration(i) * 30 * time.Millisecond); !due.Equal(want) {
			t.Fatalf("operation %d due %v, want %v", i, due, want)
		}
		clk.advance(service[i])
		latency = append(latency, ms(clk.Now().Sub(due)))
	}
	// Operation 1 stalls for 70 ms, so operation 2 (due at 60) leaves at
	// 100: 40 ms late, and its latency from the due instant carries that
	// wait. Operation 3 (due at 90) leaves at 105: 15 ms late.
	wantLate := []float64{0, 0, 40, 15}
	wantLatency := []float64{5, 70, 45, 20}
	for i := range wantLate {
		if p.lateMs[i] != wantLate[i] || latency[i] != wantLatency[i] {
			t.Errorf("operation %d: late %g ms (want %g), latency %g ms (want %g)",
				i, p.lateMs[i], wantLate[i], latency[i], wantLatency[i])
		}
	}
	if _, _, ok := p.next(); ok {
		t.Fatal("the pacer issued more operations than its total")
	}
}
