package grid

import (
	"fmt"
	"slices"
	"sort"

	"bicriteria/internal/cluster"
	"bicriteria/internal/faults"
	"bicriteria/internal/moldable"
)

// eps is the shared floating-point tolerance of the scheduling library.
const eps = moldable.Eps

// prefKnee defines the knee of a job's speedup curve for JobView.PrefProcs:
// the smallest allocation whose time is within this factor of the fastest.
const prefKnee = 1.5

// Decision records one routing decision of the meta-scheduler.
type Decision struct {
	// JobID is the routed job's task ID and Release its submission time.
	JobID   int     `json:"JobID"`
	Release float64 `json:"Release"`
	// Cluster is the index of the chosen cluster in Config.Clusters.
	Cluster int `json:"Cluster"`
	// Backlog is the chosen cluster's estimated per-processor backlog just
	// before admission (the router's virtual-clock estimate, not a realized
	// quantity).
	Backlog float64 `json:"Backlog"`
	// Migrated marks a resubmission decision: the job had been routed to a
	// shard that then went dark, and the router drained it back through
	// the policy at the outage instant (Release is that instant). Always
	// false on a fault-free run.
	Migrated bool `json:"Migrated,omitempty"`
	// Verdicts records every shard's admission verdict at the decision
	// instant — the per-cluster "why" behind the choice. Excluded from the
	// JSON report (the flight recorder is its consumer); order follows
	// Config.Clusters.
	Verdicts []ShardVerdict `json:"-"`
}

// Shard verdict states, one per cluster per routing decision.
const (
	// VerdictChosen marks the cluster the policy picked.
	VerdictChosen = "chosen"
	// VerdictOpen marks a cluster that was offered but not picked.
	VerdictOpen = "open"
	// VerdictOverBacklog marks a cluster closed for admission because its
	// estimated per-processor backlog exceeded Config.AdmitBacklog.
	VerdictOverBacklog = "over-backlog"
	// VerdictOutage marks a cluster inside a shard outage window.
	VerdictOutage = "outage"
)

// ShardVerdict is one cluster's admission verdict at a routing instant:
// whether it was chosen, merely offered, or closed — and its estimated
// per-processor backlog at that moment.
type ShardVerdict struct {
	// Cluster indexes Config.Clusters.
	Cluster int
	// Backlog is the cluster's estimated per-processor backlog at the
	// decision instant.
	Backlog float64
	// State is one of VerdictChosen, VerdictOpen, VerdictOverBacklog or
	// VerdictOutage.
	State string
}

// router is the sequential decision core of the meta-scheduler: it walks
// the arrival stream in deterministic order and asks the routing policy for
// a cluster per job, maintaining the per-cluster views (job counts and
// virtual backlog clocks) and enforcing admission control. Both the
// sequential and the concurrent grid paths drive the same router, which is
// why their decision streams are bit-identical. A session owns one router
// and a fork clones it.
type router struct {
	policy RoutingPolicy
	// admitBacklog closes a cluster to new admissions while its estimated
	// per-processor backlog exceeds it; 0 disables admission control.
	admitBacklog float64
	views        []ClusterView
	// ready[c] is the virtual finish-time clock behind views[c].Backlog.
	ready []float64
	// peak[c] is the largest virtual backlog cluster c ever showed at a
	// decision point: the realized depth of the shard's virtual queue.
	peak []float64
	// rejected[c] counts the jobs that arrived while cluster c was closed
	// for admission (its backlog over the limit) and were steered away.
	rejected []int
	// candidates is reused across decisions to avoid per-job allocations.
	candidates []ClusterView

	// Shard-outage state, populated only when the fault plan has shard
	// outages (all nil otherwise, leaving the fault-free path untouched):
	// events is the merged outage list sorted by (Start, Cluster),
	// eventIdx the next unprocessed one, byCluster[c] the indices of
	// cluster c's events and nextEvent[c] its first unprocessed one,
	// downWins[c] c's own outage windows for the admission check,
	// inflight[c] the jobs c's next outage will drain, and migrated[c]
	// the count of jobs drained away from c.
	events    []faults.ShardOutage
	eventIdx  int
	byCluster [][]int
	nextEvent []int
	downWins  [][]faults.ShardOutage
	inflight  [][]cluster.Job
	migrated  []int
}

func newRouter(specs []ClusterSpec, policy RoutingPolicy, admitBacklog float64, plan *faults.Plan) *router {
	r := &router{
		policy:       policy,
		admitBacklog: admitBacklog,
		views:        make([]ClusterView, len(specs)),
		ready:        make([]float64, len(specs)),
		peak:         make([]float64, len(specs)),
		rejected:     make([]int, len(specs)),
		migrated:     make([]int, len(specs)),
		candidates:   make([]ClusterView, 0, len(specs)),
	}
	for i, s := range specs {
		r.views[i] = ClusterView{Index: i, M: s.M}
	}
	if plan != nil && len(plan.Shards) > 0 {
		r.events = append([]faults.ShardOutage(nil), plan.Shards...)
		sort.SliceStable(r.events, func(a, b int) bool {
			if r.events[a].Start != r.events[b].Start {
				return r.events[a].Start < r.events[b].Start
			}
			return r.events[a].Cluster < r.events[b].Cluster
		})
		r.downWins = make([][]faults.ShardOutage, len(specs))
		r.inflight = make([][]cluster.Job, len(specs))
		r.byCluster = make([][]int, len(specs))
		r.nextEvent = make([]int, len(specs))
		for c := range specs {
			r.downWins[c] = plan.ShardWindows(c)
		}
		for k, o := range r.events {
			r.byCluster[o.Cluster] = append(r.byCluster[o.Cluster], k)
		}
	}
	return r
}

// clone copies the router for a session fork; the fault plan's static
// tables are shared.
func (r *router) clone() *router {
	c := *r
	c.policy = clonePolicy(r.policy)
	c.views = slices.Clone(r.views)
	c.ready = slices.Clone(r.ready)
	c.peak = slices.Clone(r.peak)
	c.rejected = slices.Clone(r.rejected)
	c.migrated = slices.Clone(r.migrated)
	c.candidates = make([]ClusterView, 0, len(r.views))
	c.nextEvent = slices.Clone(r.nextEvent)
	if r.inflight != nil {
		c.inflight = make([][]cluster.Job, len(r.inflight))
		for i, v := range r.inflight {
			c.inflight[i] = slices.Clone(v)
		}
	}
	return &c
}

// nextOutage returns cluster c's first unprocessed shard outage.
func (r *router) nextOutage(c int) (faults.ShardOutage, bool) {
	if k := r.nextEvent[c]; k < len(r.byCluster[c]) {
		return r.events[r.byCluster[c][k]], true
	}
	return faults.ShardOutage{}, false
}

// downAt reports whether cluster c is inside one of its shard outage
// windows at time t.
func (r *router) downAt(c int, t float64) bool {
	if r.downWins == nil {
		return false
	}
	for _, w := range r.downWins[c] {
		if t >= w.Start-eps && t < w.End-eps {
			return true
		}
	}
	return false
}

// popEventBefore processes the earliest unprocessed shard outage starting
// at or before t: every job the shard had virtually queued or running at
// the outage instant is drained for policy-aware resubmission (returned
// with its release reset to the outage start) and no longer counted in the
// shard's view, and the dead shard's virtual clock is set to the repair
// time — jobs that virtually finished before the outage are gone, drained
// ones moved, so the shard comes back empty exactly at o.End. Returns
// false when no event is due.
func (r *router) popEventBefore(t float64) (faults.ShardOutage, []cluster.Job, bool) {
	if r.eventIdx >= len(r.events) || r.events[r.eventIdx].Start > t {
		return faults.ShardOutage{}, nil, false
	}
	o := r.events[r.eventIdx]
	r.eventIdx++
	c := o.Cluster
	r.nextEvent[c]++
	r.ready[c] = o.End
	var drained []cluster.Job
	for _, j := range r.inflight[c] {
		j.Release = o.Start
		drained = append(drained, j)
		r.views[c].Jobs--
	}
	r.inflight[c] = r.inflight[c][:0]
	r.migrated[c] += len(drained)
	return o, drained, true
}

// jobView computes the per-cluster quantities of one job. Time vectors may
// be longer than a cluster's machine, in which case only the allocations
// the cluster can offer count (NewInstance truncates the same way).
func (r *router) jobView(j cluster.Job) JobView {
	v := JobView{
		ID:      j.Task.ID,
		Release: j.Release,
		Weight:  j.Task.Weight,
		MinWork: make([]float64, len(r.views)),
	}
	// The preferred width is the knee of the speedup curve, not the exact
	// argmin: generated moldable tasks keep improving marginally up to the
	// full machine, which would make every job "prefer" the widest cluster.
	pmin, _ := j.Task.MinTime()
	v.PrefProcs = 1
	for k := 1; k <= len(j.Task.Times); k++ {
		if j.Task.Times[k-1] <= prefKnee*pmin+eps {
			v.PrefProcs = k
			break
		}
	}
	for c := range r.views {
		kMax := len(j.Task.Times)
		if r.views[c].M < kMax {
			kMax = r.views[c].M
		}
		minW := j.Task.Times[0]
		for k := 2; k <= kMax; k++ {
			if w := float64(k) * j.Task.Times[k-1]; w < minW {
				minW = w
			}
		}
		v.MinWork[c] = minW
	}
	return v
}

// route decides the cluster of one job and updates the router state. Jobs
// must be presented in non-decreasing release order; migrated marks a
// resubmission drained off a dead shard. stays reports whether the job
// remains on the chosen shard: a job whose virtual end passes the shard's
// next outage start will be drained off it at that start, which the static
// plan already tells — so the shard's engine must never see it.
func (r *router) route(j cluster.Job, migrated bool) (d Decision, stays bool, err error) {
	// Drain the virtual backlog clocks down to the current time.
	for c := range r.views {
		backlog := r.ready[c] - j.Release
		if backlog < 0 {
			backlog = 0
			r.ready[c] = j.Release
		}
		r.views[c].Backlog = backlog
		if backlog > r.peak[c] {
			r.peak[c] = backlog
		}
	}

	// Admission control: offer only the live clusters under the backlog
	// limit, falling back to every cluster when all are saturated (jobs
	// are never dropped, only steered). Shards inside a shard outage
	// window are closed like over-backlog ones.
	r.candidates = r.candidates[:0]
	if r.admitBacklog > 0 || r.downWins != nil {
		for c := range r.views {
			if r.downAt(c, j.Release) {
				continue
			}
			if r.admitBacklog > 0 && r.views[c].Backlog > r.admitBacklog+eps {
				continue
			}
			r.candidates = append(r.candidates, r.views[c])
		}
	}
	if len(r.candidates) == 0 && r.downWins != nil {
		// Everything live is saturated: offer every live cluster before
		// falling back to the whole grid — routing to a dead shard only
		// delays the job until the repair, it is never dropped.
		for c := range r.views {
			if !r.downAt(c, j.Release) {
				r.candidates = append(r.candidates, r.views[c])
			}
		}
	}
	if len(r.candidates) == 0 {
		r.candidates = append(r.candidates, r.views...)
	}

	job := r.jobView(j)
	chosen := r.policy.Route(job, r.candidates)
	if chosen < 0 || chosen >= len(r.views) {
		return Decision{}, false, fmt.Errorf("grid: policy %s routed job %d to cluster %d of %d", r.policy.Name(), job.ID, chosen, len(r.views))
	}
	ok := false
	for _, c := range r.candidates {
		if c.Index == chosen {
			ok = true
			break
		}
	}
	if !ok {
		return Decision{}, false, fmt.Errorf("grid: policy %s routed job %d to cluster %d, which is closed for admission", r.policy.Name(), job.ID, chosen)
	}

	// Tally admission closures now that the destination is known: a shard
	// over the limit turned this job away only if the job landed elsewhere
	// (in the all-saturated fallback the chosen shard still ran it).
	if r.admitBacklog > 0 {
		for c := range r.views {
			if c != chosen && r.views[c].Backlog > r.admitBacklog+eps {
				r.rejected[c]++
			}
		}
	}

	verdicts := make([]ShardVerdict, len(r.views))
	for c := range r.views {
		state := VerdictOpen
		switch {
		case c == chosen:
			state = VerdictChosen
		case r.downAt(c, j.Release):
			state = VerdictOutage
		case r.admitBacklog > 0 && r.views[c].Backlog > r.admitBacklog+eps:
			state = VerdictOverBacklog
		}
		verdicts[c] = ShardVerdict{Cluster: c, Backlog: r.views[c].Backlog, State: state}
	}

	d = Decision{JobID: job.ID, Release: j.Release, Cluster: chosen, Backlog: r.views[chosen].Backlog, Migrated: migrated, Verdicts: verdicts}
	v := &r.views[chosen]
	v.Jobs++
	r.ready[chosen] += job.MinWork[chosen] / float64(v.M)
	// A one-shard grid has nowhere to migrate to: the job stays, and the
	// shard's engine runs it around the outage like any down window.
	if r.inflight != nil && len(r.views) > 1 {
		if o, ok := r.nextOutage(chosen); ok && r.ready[chosen] > o.Start+eps {
			r.inflight[chosen] = append(r.inflight[chosen], j)
			return d, false, nil
		}
	}
	return d, true, nil
}
