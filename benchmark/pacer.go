package main

import "time"

// pacer is the open-loop schedule of the load generator: operation i is
// due at start + i*period whatever the system under test does. Independent
// users do not wait for each other's replies, so a slow reply must not
// thin out the load; it makes the following operations late instead, and
// because every latency is taken from the due instant, the wait a stall
// imposes on later operations is counted.
type pacer struct {
	clk    clock
	start  time.Time
	period time.Duration
	total  int
	issued int
	// lateMs records, per operation, how long after its due instant the
	// generator actually released it: the generator's own error.
	lateMs []float64
}

func newPacer(clk clock, start time.Time, period time.Duration, total int) *pacer {
	return &pacer{clk: clk, start: start, period: period, total: total}
}

// due returns the due instant of operation i.
func (p *pacer) due(i int) time.Time { return p.start.Add(time.Duration(i) * p.period) }

// next blocks until the next operation is due and returns its index and
// due instant; ok is false once all operations have been issued.
func (p *pacer) next() (i int, due time.Time, ok bool) {
	if p.issued >= p.total {
		return 0, time.Time{}, false
	}
	i = p.issued
	p.issued++
	due = p.due(i)
	p.lateMs = append(p.lateMs, waitDue(p.clk, due))
	return i, due, true
}

// waitDue sleeps until the due instant and returns how late (in ms) the
// caller is released; zero or more, never negative.
func waitDue(clk clock, due time.Time) float64 {
	clk.SleepUntil(due)
	late := ms(clk.Now().Sub(due))
	if late < 0 {
		return 0
	}
	return late
}
