// Package faults is the deterministic fault-injection subsystem of the
// library: it generates seeded plans of machine failures — per-node crash
// and repair windows, correlated multi-node failures and whole-shard
// outages — and defines the small vocabulary the recovery machinery of the
// other layers shares (internal/sim kills jobs caught by a crash,
// internal/cluster re-enqueues and replans them, internal/grid drains dead
// shards back through the router, internal/serve surfaces the resulting
// lifecycle).
//
// Determinism invariants, pinned permanently by the test layer:
//
//   - A Plan is a pure function of its Config: Generate is seeded and
//     draws every node's failure stream from a source keyed by
//     (seed, cluster, node), so generation order never matters and two
//     calls with equal configs are deep-equal.
//   - An empty (or nil) Plan is the identity: every layer's output with a
//     zero-fault plan is byte-identical to the same run without the faults
//     machinery. The subsystem is therefore its own regression test.
//   - Fault injection preserves the concurrent-equals-sequential replay
//     guarantee: kills, replans and migrations happen at plan-determined
//     times inside deterministic replays, so a faulty concurrent grid run
//     is still bit-identical to its sequential twin.
package faults

import (
	"fmt"
	"math"
	"sort"

	"bicriteria/internal/schedule"
)

// NodeOutage is one node of one cluster crashing at Start and coming back
// repaired at End.
type NodeOutage struct {
	// Cluster indexes the shard (0 for a standalone cluster) and Proc the
	// processor inside it.
	Cluster int     `json:"cluster"`
	Proc    int     `json:"proc"`
	Start   float64 `json:"start"`
	End     float64 `json:"end"`
}

// ShardOutage is a whole shard of a grid federation going dark during
// [Start, End): every processor is down, queued jobs are drained back
// through the router, and running jobs are killed.
type ShardOutage struct {
	Cluster int     `json:"cluster"`
	Start   float64 `json:"start"`
	End     float64 `json:"end"`
}

// Plan is a deterministic fault scenario: every outage of a run, known in
// full before the replay starts (the layers only ever look at windows that
// have already begun, so the planner never peeks at the future). The zero
// value is the empty plan: no faults, bit-identical behaviour to a run
// without the subsystem.
type Plan struct {
	Nodes  []NodeOutage  `json:"nodes,omitempty"`
	Shards []ShardOutage `json:"shards,omitempty"`
}

// Empty reports whether the plan injects no faults at all. A nil plan is
// empty.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Nodes) == 0 && len(p.Shards) == 0)
}

// Validate checks the plan against the cluster sizes of the target system
// (one entry per shard; a standalone cluster passes []int{m}).
func (p *Plan) Validate(sizes []int) error {
	if p == nil {
		return nil
	}
	for _, n := range p.Nodes {
		if n.Cluster < 0 || n.Cluster >= len(sizes) {
			return fmt.Errorf("faults: node outage references cluster %d of %d", n.Cluster, len(sizes))
		}
		if n.Proc < 0 || n.Proc >= sizes[n.Cluster] {
			return fmt.Errorf("faults: node outage references processor %d of cluster %d (size %d)", n.Proc, n.Cluster, sizes[n.Cluster])
		}
		if err := validSpan(n.Start, n.End); err != nil {
			return fmt.Errorf("faults: node outage on cluster %d proc %d: %w", n.Cluster, n.Proc, err)
		}
	}
	for _, s := range p.Shards {
		if s.Cluster < 0 || s.Cluster >= len(sizes) {
			return fmt.Errorf("faults: shard outage references cluster %d of %d", s.Cluster, len(sizes))
		}
		if err := validSpan(s.Start, s.End); err != nil {
			return fmt.Errorf("faults: shard outage on cluster %d: %w", s.Cluster, err)
		}
	}
	return nil
}

func validSpan(start, end float64) error {
	if math.IsNaN(start) || math.IsNaN(end) || math.IsInf(start, 0) || math.IsInf(end, 0) {
		return fmt.Errorf("window [%g, %g) is not finite", start, end)
	}
	if start < 0 {
		return fmt.Errorf("window starts at negative time %g", start)
	}
	if end <= start {
		return fmt.Errorf("window [%g, %g) has empty or negative span", start, end)
	}
	return nil
}

// normalize sorts the plan into its canonical order so equal scenarios are
// deep-equal whatever order they were assembled in.
func (p *Plan) normalize() {
	sort.SliceStable(p.Nodes, func(a, b int) bool {
		x, y := p.Nodes[a], p.Nodes[b]
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		if x.Cluster != y.Cluster {
			return x.Cluster < y.Cluster
		}
		return x.Proc < y.Proc
	})
	sort.SliceStable(p.Shards, func(a, b int) bool {
		x, y := p.Shards[a], p.Shards[b]
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		return x.Cluster < y.Cluster
	})
}

// ClusterWindows returns the down windows of one cluster — its node
// outages, plus its shard outages expanded to the whole machine of m
// processors — sorted by start time. This is what a cluster engine needs
// to know: which of its processors are dead when.
func (p *Plan) ClusterWindows(clusterIndex, m int) []schedule.Window {
	if p == nil {
		return nil
	}
	var out []schedule.Window
	for _, n := range p.Nodes {
		if n.Cluster == clusterIndex {
			out = append(out, schedule.Window{Procs: []int{n.Proc}, Start: n.Start, End: n.End})
		}
	}
	for _, s := range p.Shards {
		if s.Cluster == clusterIndex {
			procs := make([]int, m)
			for i := range procs {
				procs[i] = i
			}
			out = append(out, schedule.Window{Procs: procs, Start: s.Start, End: s.End})
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Start != out[b].Start {
			return out[a].Start < out[b].Start
		}
		return out[a].End < out[b].End
	})
	return out
}

// ShardWindows returns the shard outages of one cluster, sorted by start.
func (p *Plan) ShardWindows(clusterIndex int) []ShardOutage {
	if p == nil {
		return nil
	}
	var out []ShardOutage
	for _, s := range p.Shards {
		if s.Cluster == clusterIndex {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return out
}

// SuggestHorizon estimates a fault-generation horizon for a job stream
// from its last submission time and its total minimum work spread over the
// machine: long enough that failures keep arriving for the whole replay
// even with recovery delays, short enough that plans stay small.
func SuggestHorizon(maxRelease, totalMinWork float64, procs int) float64 {
	if procs < 1 {
		procs = 1
	}
	return maxRelease + 4*totalMinWork/float64(procs) + 1
}
