package cluster

import (
	"fmt"
	"math"
)

// BatchPolicy decides when the engine fires the next batch. Whenever the
// machine is idle and jobs are pending, the engine asks the policy for the
// earliest admissible fire time (>= now). Returning now fires immediately;
// returning a later time makes the engine wait (new arrivals re-trigger the
// question); returning +Inf waits for more arrivals — the engine still
// flushes the backlog once the stream is exhausted, so no job is lost.
type BatchPolicy interface {
	// Name identifies the policy in reports.
	Name() string
	// NextFire returns the earliest time at which the pending jobs may be
	// batched, given that the machine is idle since now. It must be a pure
	// function of its arguments: a Session resumed after AdvanceTo may ask
	// again at the same instant.
	NextFire(now float64, pending []Job) float64
}

// batchOnIdle fires as soon as the machine is idle and a job is pending:
// the batch framework of section 2.2 of the paper.
type batchOnIdle struct{}

// BatchOnIdle returns the paper's batch-on-idle policy.
func BatchOnIdle() BatchPolicy { return batchOnIdle{} }

func (batchOnIdle) Name() string { return "batch-on-idle" }

func (batchOnIdle) NextFire(now float64, pending []Job) float64 { return now }

// fixedInterval fires only on multiples of a fixed period, like a cron-run
// batch scheduler: arrivals accumulate until the next tick after the
// machine goes idle.
type fixedInterval struct {
	period float64
}

// FixedInterval returns a policy firing on multiples of period.
func FixedInterval(period float64) (BatchPolicy, error) {
	if period <= 0 || math.IsNaN(period) || math.IsInf(period, 0) {
		return nil, fmt.Errorf("cluster: fixed-interval period must be positive and finite, got %g", period)
	}
	return fixedInterval{period: period}, nil
}

func (p fixedInterval) Name() string { return fmt.Sprintf("fixed-interval(%g)", p.period) }

func (p fixedInterval) NextFire(now float64, pending []Job) float64 {
	ticks := math.Ceil(now / p.period)
	if t := ticks * p.period; t >= now {
		return t
	}
	return (ticks + 1) * p.period
}

// adaptiveBacklog fires early when enough work has accumulated to keep the
// machine busy, but never keeps a job waiting longer than MaxDelay: large
// batches when the cluster is loaded, low latency when it is not.
type adaptiveBacklog struct {
	workTarget float64
	maxDelay   float64
}

// AdaptiveBacklog returns a backlog-driven policy: a batch fires as soon as
// the pending jobs carry at least workTarget processor-time units of
// minimum work, or when the oldest pending job has waited maxDelay since
// its submission, whichever comes first.
func AdaptiveBacklog(workTarget, maxDelay float64) (BatchPolicy, error) {
	if workTarget <= 0 || math.IsNaN(workTarget) || math.IsInf(workTarget, 0) {
		return nil, fmt.Errorf("cluster: backlog work target must be positive and finite, got %g", workTarget)
	}
	if maxDelay < 0 || math.IsNaN(maxDelay) {
		return nil, fmt.Errorf("cluster: invalid max delay %g", maxDelay)
	}
	return adaptiveBacklog{workTarget: workTarget, maxDelay: maxDelay}, nil
}

func (p adaptiveBacklog) Name() string {
	return fmt.Sprintf("adaptive-backlog(work=%g, delay=%g)", p.workTarget, p.maxDelay)
}

func (p adaptiveBacklog) NextFire(now float64, pending []Job) float64 {
	backlog := 0.0
	oldest := math.Inf(1)
	for i := range pending {
		w, _ := pending[i].Task.MinWork()
		backlog += w
		if pending[i].Release < oldest {
			oldest = pending[i].Release
		}
	}
	if backlog >= p.workTarget {
		return now
	}
	return oldest + p.maxDelay
}
