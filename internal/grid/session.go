package grid

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"bicriteria/internal/cluster"
	"bicriteria/internal/obs"
)

// Session is a resumable grid replay: the router's state and one
// cluster.Session per shard, so a live service can feed arrivals as they
// come and advance virtual time instead of replaying the whole stream.
//
// The router decides a job's shard from the jobs before it in stream order
// and from the static fault plan; nothing a shard does feeds back. So once
// every job released before t is fed and every later feed is released at
// or after t, the routing of every job released before t, and of every
// shard-outage drain starting before t, is what a replay of the complete
// stream decides. AdvanceTo(t) makes exactly those decisions, hands each
// shard its jobs and advances the shard sessions to t, which fire exactly
// the batches a full replay fires before t − moldable.Eps (see the prefix
// argument of cluster.Session). A job whose virtual end passes its shard's
// next outage start is drained off the shard at that start; the plan
// tells at routing time, so the shard's session is never fed it.
//
// RunContext is NewSession, Feed of the whole stream, Finish, so a session
// fed in pieces finishes with the report RunContext gives the concatenated
// stream. A Session is not safe for concurrent use; Fork makes a copy to
// finish.
type Session struct {
	f   *Federation
	ctx context.Context
	// onDecision and metrics are the federation's hooks; nil in a fork,
	// which records nothing.
	onDecision func(Decision)
	metrics    *obs.Registry

	// boundary is the last AdvanceTo: every later feed is released at or
	// after it.
	boundary float64
	// queue holds the fed jobs not yet routed, in stream order; never
	// written in place, so a fork shares it.
	queue []cluster.Job
	// infos holds every fed job's grid release and fastest time, for the
	// aggregate's samples; its keys are the IDs fed so far.
	infos     cluster.Table[jobInfo]
	rt        *router
	decisions []Decision
	shards    []*cluster.Session
	// folded[c] counts shard c's assignments already in smp.
	folded []int
	smp    samples
	// routeTime is the wall-clock time spent routing, observed once when
	// the session finishes.
	routeTime time.Duration
	// err is sticky, as in cluster.Session.
	err error
}

// jobInfo is a job's grid-level metric input.
type jobInfo struct {
	release float64
	pmin    float64
}

// errFinished is the sticky error of a finished session.
var errFinished = errors.New("grid: session already finished")

// NewSession starts an empty replay of the federation. The context reaches
// every shard engine's batch loop, as in RunContext.
func (f *Federation) NewSession(ctx context.Context) *Session {
	s := &Session{
		f:          f,
		ctx:        ctx,
		onDecision: f.cfg.OnDecision,
		metrics:    f.cfg.Metrics,
		infos:      cluster.NewTable[jobInfo](),
		rt:         newRouter(f.cfg.Clusters, clonePolicy(f.cfg.Routing), f.cfg.AdmitBacklog, f.cfg.Faults),
		decisions:  []Decision{},
		shards:     make([]*cluster.Session, len(f.engines)),
		folded:     make([]int, len(f.engines)),
	}
	for c, eng := range f.engines {
		s.shards[c] = eng.NewSession(ctx)
	}
	return s
}

// Feed adds jobs to the stream, in any order; each must be released at or
// after the session's boundary. A malformed, early or duplicate job
// rejects the whole call and changes nothing.
func (s *Session) Feed(jobs ...cluster.Job) error {
	if s.err != nil {
		return s.err
	}
	err := s.infos.Enroll("grid", jobs, s.boundary, func(j *cluster.Job) jobInfo {
		pmin, _ := j.Task.MinTime()
		return jobInfo{release: j.Release, pmin: pmin}
	})
	if err != nil {
		return err
	}
	s.queue = cluster.MergeFunc(s.queue, cluster.SortedCopy(jobs), cluster.CompareJobs)
	return nil
}

// AdvanceTo routes every fed job released before t and every shard-outage
// drain starting before t, then advances every shard session to t: the
// batches fired before t − moldable.Eps are final. A t at or below the
// boundary is a no-op.
func (s *Session) AdvanceTo(t float64) error {
	if s.err != nil {
		return s.err
	}
	if !(t > s.boundary) {
		return nil
	}
	s.boundary = t
	err := s.route(math.Nextafter(t, math.Inf(-1)), false)
	if err == nil {
		err = s.eachShard(func(c int) error { return s.shards[c].AdvanceTo(t) })
	}
	if err != nil {
		s.err = err
		return err
	}
	s.fold(func(c int) *cluster.Report { return s.shards[c].Committed() })
	return nil
}

// Finish closes the stream, routes and replays the rest and returns the
// report. The session cannot be used afterwards.
func (s *Session) Finish() (*Report, error) {
	if s.err != nil {
		return nil, s.err
	}
	reports := make([]*cluster.Report, len(s.shards))
	err := s.route(math.Inf(1), true)
	if err == nil {
		err = s.eachShard(func(c int) (err error) {
			reports[c], err = s.shards[c].Finish()
			return err
		})
	}
	if err != nil {
		s.err = err
		return nil, err
	}
	s.err = errFinished
	if s.metrics != nil {
		s.metrics.Histogram("bicrit_grid_route_stream_seconds",
			"Wall-clock time of the grid's routing pass over one full job stream.",
			obs.TimeBuckets()).Observe(s.routeTime.Seconds())
	}
	s.fold(func(c int) *cluster.Report { return reports[c] })
	return &Report{
		Policy:    s.f.cfg.Routing.Name(),
		Decisions: s.decisions,
		Clusters:  reports,
		Metrics:   aggregate(s.f.cfg.Clusters, reports, s.rt, s.smp),
	}, nil
}

// Fork returns a copy of the session to finish, shard sessions included:
// as in cluster.Session.Fork, it reads the fed jobs' tables in place, so
// the session must not be fed again until the fork is done with. A fork
// records nothing: no OnDecision or OnBatch callbacks, no registry
// metrics.
func (s *Session) Fork() *Session {
	f := *s
	f.onDecision, f.metrics = nil, nil
	f.infos = s.infos.Fork()
	f.rt = s.rt.clone()
	f.decisions = clip(s.decisions)
	f.shards = make([]*cluster.Session, len(s.shards))
	for c, sh := range s.shards {
		f.shards[c] = sh.Fork()
	}
	f.folded = slices.Clone(s.folded)
	return &f
}

// Committed returns what the session has committed so far: the routing
// decisions made and every shard's committed report (see
// cluster.Session.Committed). It shares memory with the session — read
// it, never write it. Metrics is left zero; Finish computes it.
func (s *Session) Committed() *Report {
	rep := &Report{
		Policy:    s.f.cfg.Routing.Name(),
		Decisions: clip(s.decisions),
		Clusters:  make([]*cluster.Report, len(s.shards)),
	}
	for c, sh := range s.shards {
		rep.Clusters[c] = sh.Committed()
	}
	return rep
}

func clip[T any](s []T) []T { return s[:len(s):len(s)] }

// route routes the queued jobs released at or before limit, interleaving
// shard-outage events in global time order — before each arrival, every
// outage that has begun drains its shard's virtually unfinished jobs back
// through the policy as migrations — and feeds every job to the shard it
// stays on. With final set it then processes every remaining outage.
func (s *Session) route(limit float64, final bool) error {
	start := time.Now() //lint:allow nowallclock wall-clock feeds the obs metrics only, never a scheduling decision
	feeds := make([][]cluster.Job, len(s.shards))
	handle := func(j cluster.Job, migrated bool) error {
		d, stays, err := s.rt.route(j, migrated)
		if err != nil {
			return err
		}
		s.decisions = append(s.decisions, d)
		if s.onDecision != nil {
			s.onDecision(d)
		}
		if stays {
			feeds[d.Cluster] = append(feeds[d.Cluster], j)
		}
		return nil
	}
	drainDue := func(t float64) error {
		for {
			_, drained, ok := s.rt.popEventBefore(t)
			if !ok {
				return nil
			}
			for _, dj := range drained {
				if err := handle(dj, true); err != nil {
					return err
				}
			}
		}
	}
	n := 0
	for ; n < len(s.queue) && s.queue[n].Release <= limit; n++ {
		j := s.queue[n]
		if err := drainDue(j.Release); err != nil {
			return err
		}
		if err := handle(j, false); err != nil {
			return err
		}
	}
	s.queue = s.queue[n:]
	if !final {
		// Outages starting before the next arrival still drain first,
		// whenever that arrival comes.
		if err := drainDue(limit); err != nil {
			return err
		}
	} else if err := drainDue(math.Inf(1)); err != nil {
		return err
	}
	s.routeTime += time.Since(start) //lint:allow nowallclock wall-clock feeds the obs metrics only, never a scheduling decision
	for c, jobs := range feeds {
		if err := s.shards[c].Feed(jobs...); err != nil {
			return fmt.Errorf("grid: cluster %d: %w", c, err)
		}
	}
	return nil
}

// eachShard runs fn for every shard — one goroutine each unless the
// federation is sequential — and returns the first error by shard index.
func (s *Session) eachShard(fn func(c int) error) error {
	errs := make([]error, len(s.shards))
	if s.f.cfg.Sequential {
		for c := range s.shards {
			if errs[c] = fn(c); errs[c] != nil {
				break
			}
		}
	} else {
		var wg sync.WaitGroup
		wg.Add(len(s.shards))
		for c := range s.shards {
			go func() {
				defer wg.Done()
				errs[c] = fn(c)
			}()
		}
		wg.Wait()
	}
	for c, err := range errs {
		if err != nil {
			return fmt.Errorf("grid: cluster %d: %w", c, err)
		}
	}
	return nil
}

// fold merges the stretch and bounded-slowdown samples of every shard
// assignment committed since the last fold into the grid-wide samples.
// The flow runs from the job's grid release: a migrated job's shard
// release is its outage instant, not its submission.
func (s *Session) fold(report func(c int) *cluster.Report) {
	var stretches, bslds []float64
	for c := range s.shards {
		as := report(c).Schedule.Assignments
		for _, a := range as[s.folded[c]:] {
			info, _ := s.infos.Get(a.TaskID)
			flow := a.End() - info.release
			if info.pmin > 0 {
				stretches = append(stretches, flow/info.pmin)
			}
			bslds = append(bslds, cluster.BoundedSlowdown(flow, info.pmin))
		}
		s.folded[c] = len(as)
	}
	// Sorted as sort.Float64s sorts the union: NaNs first.
	sort.Float64s(stretches)
	sort.Float64s(bslds)
	s.smp = samples{
		cluster.MergeFunc(s.smp.stretches, stretches, cmp.Compare[float64]),
		cluster.MergeFunc(s.smp.bslds, bslds, cmp.Compare[float64]),
	}
}
