package main

import "time"

// clock is the harness's only door to the wall clock: every timing and
// every sleep goes through it, so the open-loop pacer can be driven by a
// fake in tests and the determinism linter sees one annotated site per
// call instead of time.Now scattered over the workloads.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

// wallClock is the real clock.
type wallClock struct{}

func (wallClock) Now() time.Time {
	return time.Now() //lint:allow nowallclock the benchmark measures wall time; nothing the program under test decides depends on this reading
}

func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 { //lint:allow nowallclock the open-loop pacer waits for the next due instant on the wall clock
		time.Sleep(d) //lint:allow nowallclock the open-loop pacer waits for the next due instant on the wall clock
	}
}

// wall is the clock every workload times with.
var wall clock = wallClock{}

// since returns the milliseconds elapsed since t0 on the wall clock.
func since(t0 time.Time) float64 { return ms(wall.Now().Sub(t0)) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
