package grid

import (
	"bicriteria/internal/cluster"
	"bicriteria/internal/stats"
)

// ClusterSummary is the grid-level digest of one shard's run.
type ClusterSummary struct {
	// Index is the shard's position in Config.Clusters and M its size.
	Index int `json:"Index"`
	M     int `json:"M"`
	// Jobs and Batches count what the shard executed.
	Jobs    int `json:"Jobs"`
	Batches int `json:"Batches"`
	// Makespan is the shard's realized completion time of its last job.
	Makespan float64 `json:"Makespan"`
	// Utilization is the shard's own busy fraction over [0, Makespan] x M.
	Utilization float64 `json:"Utilization"`
	// MeanStretch is the shard's mean realized stretch.
	MeanStretch float64 `json:"MeanStretch"`
	// PeakBacklog is the deepest virtual queue the shard ever showed the
	// router: the largest estimated per-processor backlog (in time units)
	// observed at any routing decision. It is a router-side estimate, so it
	// is identical between sequential and concurrent replays.
	PeakBacklog float64 `json:"PeakBacklog"`
	// Rejected counts the jobs that arrived while this shard was closed
	// for admission (backlog over Config.AdmitBacklog) and were steered to
	// another shard. Zero when admission control is disabled.
	Rejected int `json:"Rejected"`
	// Killed, Resubmitted, Lost and Recovered mirror the shard engine's
	// fault counters (kill events, re-enqueues, abandoned jobs, jobs
	// completed after a kill); Migrated counts the jobs the router drained
	// away from this shard when it went dark. All zero on a fault-free
	// run.
	Killed      int `json:",omitempty"`
	Resubmitted int `json:",omitempty"`
	Lost        int `json:",omitempty"`
	Recovered   int `json:",omitempty"`
	Migrated    int `json:",omitempty"`
	// Wins counts the shard's portfolio winners per algorithm.
	Wins map[string]int `json:"Wins"`
}

// Metrics is the grid-wide aggregate of a federation run.
type Metrics struct {
	// Clusters is the number of shards and Jobs the number of completed
	// jobs across all of them.
	Clusters int `json:"Clusters"`
	Jobs     int `json:"Jobs"`
	// Makespan is the completion time of the last job anywhere in the grid.
	Makespan float64 `json:"Makespan"`
	// WeightedCompletion is sum(w_i * C_i) over every job of the grid.
	WeightedCompletion float64 `json:"WeightedCompletion"`
	// MaxFlow is the largest realized flow time over the grid.
	MaxFlow float64 `json:"MaxFlow"`
	// MeanStretch and the percentiles describe the grid-wide distribution
	// of per-job stretch (flow over fastest possible execution time).
	MeanStretch float64 `json:"MeanStretch"`
	StretchP50  float64 `json:"StretchP50"`
	StretchP95  float64 `json:"StretchP95"`
	StretchP99  float64 `json:"StretchP99"`
	// MeanBoundedSlowdown and the percentiles describe the grid-wide
	// bounded-slowdown distribution (see cluster.BoundedSlowdown).
	MeanBoundedSlowdown float64 `json:"MeanBoundedSlowdown"`
	BoundedSlowdownP50  float64 `json:"BoundedSlowdownP50"`
	BoundedSlowdownP95  float64 `json:"BoundedSlowdownP95"`
	BoundedSlowdownP99  float64 `json:"BoundedSlowdownP99"`
	// Utilization is the busy fraction of the whole grid rectangle
	// [0, Makespan] x (sum of all processors): idle shards count against
	// it, as they would on a real federation.
	Utilization float64 `json:"Utilization"`
	// Rejections is the total number of admission-control closures over
	// the run: the sum of the per-shard Rejected counts.
	Rejections int `json:"Rejections"`
	// Killed, Resubmitted, Lost and Recovered aggregate the shard
	// engines' fault counters across the grid; Migrated counts the jobs
	// drained off dead shards and re-routed by the meta-scheduler. All
	// zero on a fault-free run.
	Killed      int `json:",omitempty"`
	Resubmitted int `json:",omitempty"`
	Lost        int `json:",omitempty"`
	Recovered   int `json:",omitempty"`
	Migrated    int `json:",omitempty"`
	// PerCluster digests every shard, indexed like Config.Clusters.
	PerCluster []ClusterSummary `json:"PerCluster"`
}

// samples holds the grid-wide per-job stretch and bounded-slowdown samples
// in sorted order. The slices are never written in place — a fold merges
// into new ones — so a session fork shares them.
type samples struct{ stretches, bslds []float64 }

// aggregate folds the per-shard reports into the grid metrics, given the
// grid-wide per-job stretch and bounded-slowdown samples in sorted order
// (see samples). Their summaries depend only on the sample multiset, so the
// result is a deterministic function of the reports.
func aggregate(specs []ClusterSpec, reports []*cluster.Report, rt *router, smp samples) Metrics {
	m := Metrics{Clusters: len(reports), PerCluster: make([]ClusterSummary, len(reports))}
	busy, procs := 0.0, 0
	for i, rep := range reports {
		cm := rep.Metrics
		m.PerCluster[i] = ClusterSummary{
			Index:       i,
			M:           specs[i].M,
			Jobs:        cm.Jobs,
			Batches:     cm.Batches,
			Makespan:    cm.Makespan,
			Utilization: cm.Utilization,
			MeanStretch: cm.MeanStretch,
			PeakBacklog: rt.peak[i],
			Rejected:    rt.rejected[i],
			Killed:      cm.Killed,
			Resubmitted: cm.Resubmitted,
			Lost:        cm.Lost,
			Recovered:   cm.Recovered,
			Migrated:    rt.migrated[i],
			Wins:        cm.Wins,
		}
		m.Rejections += rt.rejected[i]
		m.Killed += cm.Killed
		m.Resubmitted += cm.Resubmitted
		m.Lost += cm.Lost
		m.Recovered += cm.Recovered
		m.Migrated += rt.migrated[i]
		m.Jobs += cm.Jobs
		m.WeightedCompletion += cm.WeightedCompletion
		if cm.Makespan > m.Makespan {
			m.Makespan = cm.Makespan
		}
		if cm.MaxFlow > m.MaxFlow {
			m.MaxFlow = cm.MaxFlow
		}
		busy += cm.Utilization * cm.Makespan * float64(specs[i].M)
		procs += specs[i].M
	}
	stretch := stats.TailOfSorted(smp.stretches)
	m.MeanStretch = stretch.Mean
	m.StretchP50, m.StretchP95, m.StretchP99 = stretch.P50, stretch.P95, stretch.P99
	bsld := stats.TailOfSorted(smp.bslds)
	m.MeanBoundedSlowdown = bsld.Mean
	m.BoundedSlowdownP50, m.BoundedSlowdownP95, m.BoundedSlowdownP99 = bsld.P50, bsld.P95, bsld.P99
	if m.Makespan > 0 && procs > 0 {
		m.Utilization = busy / (m.Makespan * float64(procs))
	}
	return m
}
