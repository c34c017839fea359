package grid

import (
	"fmt"
	"math"
)

// ClusterView is the router's live estimate of one cluster shard, exposed
// to routing policies. Views are updated after every decision, so a policy
// always sees the state produced by all previous routings of the stream.
type ClusterView struct {
	// Index is the cluster's position in Config.Clusters.
	Index int
	// M is the cluster's processor count.
	M int
	// Jobs is the number of jobs routed to the cluster so far.
	Jobs int
	// Backlog estimates the queued work ahead of a new arrival, in time
	// units per processor: a virtual finish-time clock advanced by
	// minwork/M on every admission and drained by real time between
	// arrivals.
	Backlog float64
}

// JobView is the router's view of the job being routed: its identity plus
// the per-cluster quantities a policy may weigh. The slices are indexed by
// cluster index (not by position in the candidate list).
type JobView struct {
	// ID is the job's task ID and Release its submission time.
	ID      int
	Release float64
	// Weight is the job's priority.
	Weight float64
	// MinWork[c] is the least work of the job on cluster c (over the
	// allocations the cluster can actually offer).
	MinWork []float64
	// PrefProcs is the knee of the job's speedup curve: the smallest
	// allocation bringing it within 50% of its fastest execution time
	// anywhere. Weakly parallel jobs (whose times keep shrinking only
	// marginally) get a small width; near-linear jobs a large one.
	PrefProcs int
}

// RoutingPolicy decides which cluster receives each job of the stream.
// Route is called once per job in deterministic stream order (release date,
// then task ID) with the candidate clusters currently open for admission;
// it must return the Index of one candidate. Implementations must be
// deterministic functions of their inputs and internal state for grid
// replays to be bit-identical. Internal state of a policy other than the
// built-ins is shared by every session of a federation, so concurrent runs
// and session forks are exact only for stateless ones.
type RoutingPolicy interface {
	// Name identifies the policy in reports.
	Name() string
	// Route picks a cluster for the job among the candidates (never
	// empty). The returned value must be the Index field of one candidate.
	Route(job JobView, candidates []ClusterView) int
}

// statefulPolicy is implemented by the built-in policies that carry state
// between decisions (round-robin's cursor): every session routes with its
// own copy — of the configured policy, which no session changes, when it
// starts, and of its parent's when it forks.
type statefulPolicy interface {
	clone() RoutingPolicy
}

// clonePolicy returns a copy of a stateful policy, or p itself.
func clonePolicy(p RoutingPolicy) RoutingPolicy {
	if sp, ok := p.(statefulPolicy); ok {
		return sp.clone()
	}
	return p
}

// ParsePolicy converts a CLI string into a routing policy.
func ParsePolicy(s string) (RoutingPolicy, error) {
	switch s {
	case "round-robin", "rr":
		return RoundRobin(), nil
	case "least-backlog", "backlog":
		return LeastBacklog(), nil
	case "lower-bound", "lb":
		return LowerBoundAware(), nil
	case "moldability", "mold":
		return MoldabilityAware(), nil
	}
	return nil, fmt.Errorf("grid: unknown routing policy %q (want round-robin, least-backlog, lower-bound or moldability)", s)
}

// roundRobin cycles over the clusters, skipping the ones closed for
// admission (absent from the candidate list).
type roundRobin struct {
	last int
}

// RoundRobin returns the cyclic routing policy: each job goes to the next
// cluster (by index) after the previously chosen one that is still open
// for admission.
func RoundRobin() RoutingPolicy { return &roundRobin{last: -1} }

func (p *roundRobin) Name() string { return "round-robin" }

func (p *roundRobin) clone() RoutingPolicy { return &roundRobin{last: p.last} }

func (p *roundRobin) Route(job JobView, candidates []ClusterView) int {
	best := candidates[0].Index
	bestDist := math.MaxInt
	for _, c := range candidates {
		// Cyclic distance from the previous choice; the closest strictly
		// following candidate wins.
		dist := c.Index - p.last
		if dist <= 0 {
			dist += math.MaxInt32 // any bound > number of clusters works
		}
		if dist < bestDist {
			bestDist = dist
			best = c.Index
		}
	}
	p.last = best
	return best
}

// leastBacklog routes to the candidate with the smallest estimated queue.
type leastBacklog struct{}

// LeastBacklog returns the policy routing each job to the cluster with the
// smallest estimated per-processor backlog, ties broken by cluster index.
func LeastBacklog() RoutingPolicy { return leastBacklog{} }

func (leastBacklog) Name() string { return "least-backlog" }

func (leastBacklog) Route(job JobView, candidates []ClusterView) int {
	best := candidates[0]
	for _, c := range candidates[1:] {
		if c.Backlog < best.Backlog-eps {
			best = c
		}
	}
	return best.Index
}

// lowerBoundAware routes to the candidate whose squashed-area bound, on
// the drained backlog clock, ends earliest once the job is added.
type lowerBoundAware struct{}

// LowerBoundAware returns the policy routing each job to the cluster whose
// squashed-area makespan lower bound ends earliest once the job is
// admitted: the cluster's drained per-processor backlog plus the job's
// least work there spread over its processors. Both terms count from the
// job's release, so the grid-wide bound grows least; unlike least-backlog,
// a large cluster absorbs a job at a higher backlog, because the job adds
// less per processor there. Ties are broken by cluster index.
func LowerBoundAware() RoutingPolicy { return lowerBoundAware{} }

func (lowerBoundAware) Name() string { return "lower-bound" }

func (lowerBoundAware) Route(job JobView, candidates []ClusterView) int {
	best := candidates[0].Index
	bestEnd := math.Inf(1)
	for _, c := range candidates {
		if end := c.Backlog + job.MinWork[c.Index]/float64(c.M); end < bestEnd-eps {
			bestEnd = end
			best = c.Index
		}
	}
	return best
}

// moldabilityAware matches the job's useful parallelism to cluster sizes.
type moldabilityAware struct{}

// MoldabilityAware returns the policy matching jobs to cluster sizes: a job
// goes to the smallest cluster that fits its preferred allocation (the knee
// of its speedup curve, see JobView.PrefProcs), so narrow jobs
// keep the small clusters busy and wide clusters stay free for jobs that
// can actually exploit them. When no cluster fits, the largest one is used.
// Among clusters of the chosen size, the smallest estimated backlog wins,
// then the lowest index.
func MoldabilityAware() RoutingPolicy { return moldabilityAware{} }

func (moldabilityAware) Name() string { return "moldability" }

func (moldabilityAware) Route(job JobView, candidates []ClusterView) int {
	best := -1
	var bestView ClusterView
	fits := false
	for _, c := range candidates {
		cFits := c.M >= job.PrefProcs
		better := false
		switch {
		case best < 0:
			better = true
		case cFits != fits:
			better = cFits // a fitting cluster always beats a non-fitting one
		case cFits:
			// Both fit: smaller machine first, then backlog, then index.
			better = c.M < bestView.M ||
				(c.M == bestView.M && c.Backlog < bestView.Backlog-eps)
		default:
			// Neither fits: the largest machine truncates the job least.
			better = c.M > bestView.M
		}
		if better {
			best = c.Index
			bestView = c
			fits = cFits
		}
	}
	return best
}
