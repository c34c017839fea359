package cluster

import (
	"maps"
	"math"
	"slices"
	"sort"

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
// keeps a running accumulator and attaches a snapshot to every batch
// report, so a long replay can be monitored as it streams.
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
	stretches   sample
	bslds       sample
	busy        float64
	delayed     int
	killed      int
	resubmitted int
	lost        int
	recovered   int
	wins        map[string]int
	// scratch is the merge buffer of sample.sort, reused across snapshots.
	scratch []float64
}

func newMetricsAccumulator(m int) *metricsAccumulator {
	return &metricsAccumulator{m: m, wins: make(map[string]int)}
}

// clone deep-copies the accumulator for a session fork: snapshot sorts the
// samples in place, so a fork must not share them (nor the scratch buffer).
func (acc *metricsAccumulator) clone() *metricsAccumulator {
	c := *acc
	c.stretches.vals = slices.Clone(acc.stretches.vals)
	c.bslds.vals = slices.Clone(acc.bslds.vals)
	c.wins = maps.Clone(acc.wins)
	c.scratch = nil
	return &c
}

// sample is a list of observations kept in sort.Float64s order (NaNs
// first) across snapshots: vals[:sorted] is in order, the rest arrived
// since the last sort.
type sample struct {
	vals   []float64
	sorted int
}

// sort puts vals in order in O(new·log new + len(vals)): it sorts the
// values added since the last call and merges them, from the back, into
// the sorted prefix, with scratch (returned, possibly grown) holding the
// new values during the merge. Equal values are interchangeable, so the
// result is the slice sort.Float64s would leave.
func (s *sample) sort(scratch []float64) []float64 {
	fresh := s.vals[s.sorted:]
	sort.Float64s(fresh)
	scratch = append(scratch[:0], fresh...)
	i, j := s.sorted-1, len(scratch)-1
	for k := len(s.vals) - 1; j >= 0; k-- {
		if i >= 0 && floatLess(scratch[j], s.vals[i]) {
			s.vals[k], i = s.vals[i], i-1
		} else {
			s.vals[k], j = scratch[j], j-1
		}
	}
	s.sorted = len(s.vals)
	return scratch
}

// floatLess is the order of sort.Float64s: NaNs first, then by value.
func floatLess(a, b float64) bool {
	return a < b || (math.IsNaN(a) && !math.IsNaN(b))
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
		acc.stretches.vals = append(acc.stretches.vals, flow/pmin)
	}
	acc.bslds.vals = append(acc.bslds.vals, BoundedSlowdown(flow, pmin))
}

// observeBatch folds one committed batch into the accumulator.
func (acc *metricsAccumulator) observeBatch(winner string, busyTime float64, delayed int) {
	acc.batches++
	acc.wins[winner]++
	acc.busy += busyTime
	acc.delayed += delayed
}

// snapshot derives the exported metrics. The winner map is copied so a
// stored snapshot is not mutated by later batches.
func (acc *metricsAccumulator) snapshot() Metrics {
	m := Metrics{
		Batches:            acc.batches,
		Jobs:               acc.jobs,
		Makespan:           acc.makespan,
		WeightedCompletion: acc.weightedC,
		MaxFlow:            acc.maxFlow,
		Delayed:            acc.delayed,
		Killed:             acc.killed,
		Resubmitted:        acc.resubmitted,
		Lost:               acc.lost,
		Recovered:          acc.recovered,
		Wins:               make(map[string]int, len(acc.wins)),
	}
	for k, v := range acc.wins {
		m.Wins[k] = v
	}
	// snapshot runs once per batch, so it sorts only the batch's new
	// samples and merges them into the sorted rest in one pass, instead of
	// sorting the whole sample again.
	acc.scratch = acc.stretches.sort(acc.scratch)
	stretch := stats.TailOfSorted(acc.stretches.vals)
	m.MeanStretch = stretch.Mean
	m.StretchP50, m.StretchP95, m.StretchP99 = stretch.P50, stretch.P95, stretch.P99
	acc.scratch = acc.bslds.sort(acc.scratch)
	bsld := stats.TailOfSorted(acc.bslds.vals)
	m.MeanBoundedSlowdown = bsld.Mean
	m.BoundedSlowdownP50, m.BoundedSlowdownP95, m.BoundedSlowdownP99 = bsld.P50, bsld.P95, bsld.P99
	if acc.makespan > 0 && acc.m > 0 {
		m.Utilization = acc.busy / (acc.makespan * float64(acc.m))
	}
	return m
}
