package cluster

import (
	"maps"

	"bicriteria/internal/stats"
)

// BoundedSlowdownThreshold is the runtime floor tau of the bounded-slowdown
// metric max(1, flow / max(pmin, tau)): jobs faster than tau do not inflate
// the slowdown arbitrarily. One time unit matches the scale of the paper's
// workloads (sequential times in [1, 10]).
const BoundedSlowdownThreshold = 1.0

// BoundedSlowdown computes the bounded slowdown of one realized job from
// its flow time (completion minus submission) and its fastest possible
// execution time pmin.
func BoundedSlowdown(flow, pmin float64) float64 {
	denom := pmin
	if denom < BoundedSlowdownThreshold {
		denom = BoundedSlowdownThreshold
	}
	if s := flow / denom; s > 1 {
		return s
	}
	return 1
}

// Metrics aggregates the realized behaviour of a cluster run. The engine
// keeps a running accumulator and derives the metrics from it when the
// session finishes; every batch report carries the running utilization.
type Metrics struct {
	// Batches is the number of batches committed so far.
	Batches int `json:"Batches"`
	// Jobs is the number of jobs completed so far.
	Jobs int `json:"Jobs"`
	// Makespan is the realized completion time of the last job (absolute).
	Makespan float64 `json:"Makespan"`
	// WeightedCompletion is the realized sum(w_i * C_i) with absolute
	// completion times.
	WeightedCompletion float64 `json:"WeightedCompletion"`
	// MaxFlow is the maximum realized flow time (completion minus
	// submission) over jobs.
	MaxFlow float64 `json:"MaxFlow"`
	// MeanStretch is the mean over jobs of the realized flow time divided
	// by the job's fastest possible execution time.
	MeanStretch float64 `json:"MeanStretch"`
	// StretchP50, StretchP95 and StretchP99 are nearest-rank percentiles of
	// the per-job stretch distribution: the tail the mean hides.
	StretchP50 float64 `json:"StretchP50"`
	StretchP95 float64 `json:"StretchP95"`
	StretchP99 float64 `json:"StretchP99"`
	// MeanBoundedSlowdown is the mean over jobs of
	// max(1, flow / max(pmin, BoundedSlowdownThreshold)).
	MeanBoundedSlowdown float64 `json:"MeanBoundedSlowdown"`
	// BoundedSlowdownP50, P95 and P99 are the matching percentiles.
	BoundedSlowdownP50 float64 `json:"BoundedSlowdownP50"`
	BoundedSlowdownP95 float64 `json:"BoundedSlowdownP95"`
	BoundedSlowdownP99 float64 `json:"BoundedSlowdownP99"`
	// Utilization is the fraction of the processor-time rectangle
	// [0, Makespan] x M spent executing jobs. Idle waits between batches
	// count against it, as on a real machine.
	Utilization float64 `json:"Utilization"`
	// Delayed counts the tasks that started later than their planned
	// (batch-relative) start time during realized execution.
	Delayed int `json:"Delayed"`
	// Killed counts kill events (one job can die more than once),
	// Resubmitted the re-enqueues they caused, Lost the jobs abandoned
	// after MaxRetries kills and Recovered the jobs that completed after
	// having been killed at least once. All four are zero on a fault-free
	// run.
	Killed      int `json:",omitempty"`
	Resubmitted int `json:",omitempty"`
	Lost        int `json:",omitempty"`
	Recovered   int `json:",omitempty"`
	// Wins counts, per portfolio algorithm, the batches it won.
	Wins map[string]int `json:"Wins"`
}

// metricsAccumulator is the running state behind Metrics.
type metricsAccumulator struct {
	m           int
	batches     int
	jobs        int
	makespan    float64
	weightedC   float64
	maxFlow     float64
	stretches   []float64
	bslds       []float64
	busy        float64
	delayed     int
	killed      int
	resubmitted int
	lost        int
	recovered   int
	wins        map[string]int
}

func newMetricsAccumulator(m int) *metricsAccumulator {
	return &metricsAccumulator{m: m, wins: make(map[string]int)}
}

// clone copies the accumulator for a session fork. The samples are shared
// with clipped capacity, so neither side's appends show through to the
// other, and metrics sorts a copy.
func (acc *metricsAccumulator) clone() *metricsAccumulator {
	c := *acc
	c.stretches, c.bslds = clip(acc.stretches), clip(acc.bslds)
	c.wins = maps.Clone(acc.wins)
	return &c
}

// observeJob folds one realized job completion into the accumulator.
func (acc *metricsAccumulator) observeJob(release, completion, pmin, weight float64) {
	acc.jobs++
	if completion > acc.makespan {
		acc.makespan = completion
	}
	acc.weightedC += weight * completion
	flow := completion - release
	if flow > acc.maxFlow {
		acc.maxFlow = flow
	}
	if pmin > 0 {
		acc.stretches = append(acc.stretches, flow/pmin)
	}
	acc.bslds = append(acc.bslds, BoundedSlowdown(flow, pmin))
}

// observeBatch folds one committed batch into the accumulator.
func (acc *metricsAccumulator) observeBatch(winner string, busyTime float64, delayed int) {
	acc.batches++
	acc.wins[winner]++
	acc.busy += busyTime
	acc.delayed += delayed
}

// utilization is the busy share of the processor-time rectangle
// [0, makespan] x m so far.
func (acc *metricsAccumulator) utilization() float64 {
	if acc.makespan > 0 && acc.m > 0 {
		return acc.busy / (acc.makespan * float64(acc.m))
	}
	return 0
}

// metrics derives the exported metrics once the last batch is in: the
// report takes the winner map over.
func (acc *metricsAccumulator) metrics() Metrics {
	stretch, bsld := stats.TailSummary(acc.stretches), stats.TailSummary(acc.bslds)
	return Metrics{
		Batches:             acc.batches,
		Jobs:                acc.jobs,
		Makespan:            acc.makespan,
		WeightedCompletion:  acc.weightedC,
		MaxFlow:             acc.maxFlow,
		MeanStretch:         stretch.Mean,
		StretchP50:          stretch.P50,
		StretchP95:          stretch.P95,
		StretchP99:          stretch.P99,
		MeanBoundedSlowdown: bsld.Mean,
		BoundedSlowdownP50:  bsld.P50,
		BoundedSlowdownP95:  bsld.P95,
		BoundedSlowdownP99:  bsld.P99,
		Utilization:         acc.utilization(),
		Delayed:             acc.delayed,
		Killed:              acc.killed,
		Resubmitted:         acc.resubmitted,
		Lost:                acc.lost,
		Recovered:           acc.recovered,
		Wins:                acc.wins,
	}
}
