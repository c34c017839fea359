package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"bicriteria/internal/moldable"
	"bicriteria/internal/obs"
	"bicriteria/internal/schedule"
)

// Session is a resumable replay of one engine: the state of the batch loop
// held in a value, so a live service can feed arrivals as they come and
// fire batches as time passes instead of replaying the whole stream each
// time it wants to look.
//
// The prefix argument. A batch is built only from the jobs the engine has
// admitted — the arrivals released by its fire time (within moldable.Eps)
// plus the jobs earlier batches killed — and BatchPolicy.NextFire sees
// only that backlog and the clock. So once every job released before t is
// fed and every later feed is released at or after t, a batch firing
// before t − Eps gets exactly the members, plan and realized execution a
// replay of the complete stream gives it: no later arrival can join it,
// and none lands before it. AdvanceTo(t) fires exactly those batches and
// stops at the first step a later arrival could still change, holding the
// state a full replay holds at that point; the batches it fired are final.
// Feed enforces the other half of the argument: a job released before the
// session's boundary (the last AdvanceTo) is rejected.
//
// A full replay is NewSession, Feed of the whole stream, Finish. A session
// fed a stream in pieces, with AdvanceTo calls between them, therefore
// finishes with the report a full replay of the concatenated stream gives.
//
// A Session is not safe for concurrent use; Fork makes a copy to finish.
type Session struct {
	e   *Engine
	ctx context.Context
	// onBatch and metrics are the engine's hooks; nil in a fork, which
	// records nothing.
	onBatch func(BatchReport)
	metrics *obs.Registry

	// boundary is the last AdvanceTo: every job fed from now on is
	// released at or after it.
	boundary float64
	// queue holds the fed jobs not yet admitted, sorted by (release, ID).
	// It is never written in place (Feed merges into a new slice), so a
	// fork shares it.
	queue []Job
	// pending is the admitted backlog of the next batch.
	pending    []Job
	now        float64
	batchIndex int
	// infos caches every fed job's metric inputs; its keys are the IDs fed
	// so far.
	infos  Table[jobInfo]
	acc    *metricsAccumulator
	report *Report
	fstate *faultState
	race   *raceState
	// facts is the current batch's shared facts (see runBatch); a fork
	// allocates its own.
	facts *batchFacts
	// err is sticky: a failed step leaves the loop state undefined, so the
	// session refuses every later call with it.
	err error
}

// errFinished is the sticky error of a finished session.
var errFinished = errors.New("cluster: session already finished")

// NewSession starts an empty replay of the engine. The context is checked
// between batches of every AdvanceTo and Finish: a cancellation fails the
// session with the context's error (wrapped).
func (e *Engine) NewSession(ctx context.Context) *Session {
	s := &Session{
		e:       e,
		ctx:     ctx,
		onBatch: e.cfg.OnBatch,
		metrics: e.cfg.Metrics,
		infos:   NewTable[jobInfo](),
		acc:     newMetricsAccumulator(e.cfg.M),
		report:  &Report{Schedule: schedule.New(e.cfg.M), Blocked: e.blocked},
	}
	if e.cfg.Racing.enabled() {
		s.race = newRaceState(len(e.cfg.Portfolio), e.cfg.Racing)
		if s.metrics != nil {
			// Touch the racing counters so scrapers see them at zero from
			// the first batch, even before any cutoff fires.
			s.metrics.Counter("bicrit_portfolio_cutoff_hits_total",
				"Batches where the racing cutoff fired and cancelled at least one member.").Add(0)
			for _, a := range e.cfg.Portfolio {
				s.metrics.Counter("bicrit_portfolio_cancelled_total",
					"Portfolio members cut off by the racing early cutoff.",
					obs.L("algorithm", a.Name)).Add(0)
			}
		}
	}
	if len(e.cfg.Outages) > 0 {
		s.fstate = newFaultState(e.cfg.Replan, e.cfg.MaxRetries)
	}
	return s
}

// Feed adds jobs to the stream. They may come in any order, but each must
// be released at or after the session's boundary — an earlier job would
// belong to a batch that has already fired. A malformed, early or
// duplicate job rejects the whole call and changes nothing.
func (s *Session) Feed(jobs ...Job) error {
	if s.err != nil {
		return s.err
	}
	err := s.infos.Enroll("cluster", jobs, s.boundary, func(j *Job) jobInfo {
		pmin, _ := j.Task.MinTime()
		return jobInfo{release: j.Release, pmin: pmin, weight: j.Task.Weight}
	})
	if err != nil {
		return err
	}
	s.queue = MergeFunc(s.queue, SortedCopy(jobs), CompareJobs)
	return nil
}

// AdvanceTo fires every batch a replay of the complete stream fires before
// t − moldable.Eps and raises the boundary to t (see the prefix argument in
// the type's documentation). Batches at or after t − Eps, and the flush of
// a backlog the policy would hold forever, wait for later calls or Finish.
// A t at or below the boundary is a no-op.
func (s *Session) AdvanceTo(t float64) error {
	if s.err != nil {
		return s.err
	}
	if !(t > s.boundary) {
		return nil
	}
	s.boundary = t
	if err := s.run(false); err != nil {
		s.err = err
		return err
	}
	return nil
}

// Finish closes the stream, replays it to the end and returns the report.
// The session cannot be used afterwards.
func (s *Session) Finish() (*Report, error) {
	if s.err != nil {
		return nil, s.err
	}
	if err := s.run(true); err != nil {
		s.err = err
		return nil, err
	}
	s.report.Metrics = s.acc.metrics()
	s.err = errFinished
	return s.report, nil
}

// Fork returns a copy of the session: feeding, advancing or finishing the
// fork leaves the session untouched. The committed report and the metric
// samples are shared with clipped capacity, so neither side's appends show
// through to the other; the loop state and the fault and racing state are
// copied. The fork reads the fed jobs' table in place (see Table),
// so it is for finishing — a grid fork feeds it what it routes on the
// way — and the session must not be fed again until the fork is done
// with. A fork records nothing: no OnBatch callbacks, no registry metrics
// — only the session it was forked from reports its batches.
func (s *Session) Fork() *Session {
	f := *s
	f.onBatch, f.metrics, f.facts = nil, nil, nil
	f.pending = slices.Clone(s.pending)
	f.infos = s.infos.Fork()
	f.acc = s.acc.clone()
	f.report = s.report.committed()
	if s.fstate != nil {
		f.fstate = s.fstate.clone()
	}
	if s.race != nil {
		f.race = s.race.clone()
	}
	return &f
}

// Committed returns what the session has committed so far: the batches
// fired (with their kills), the realized schedule and the losses. It
// shares memory with the session — read it, never write it — but later
// batches never show through. Metrics is left zero: Finish computes it,
// and every batch carries the running utilization.
func (s *Session) Committed() *Report { return s.report.committed() }

// committed is a view of the report whose slices end at their current
// length: appends to the view reallocate, appends to the report write past
// the view's end.
func (r *Report) committed() *Report {
	return &Report{
		Schedule: &schedule.Schedule{M: r.Schedule.M, Assignments: clip(r.Schedule.Assignments)},
		Batches:  clip(r.Batches),
		Blocked:  r.Blocked,
		Lost:     clip(r.Lost),
	}
}

func clip[T any](s []T) []T { return s[:len(s):len(s)] }

// run is the engine's batch loop. With final false it stops before the
// first step a job fed later could change — admitting arrivals, moving the
// clock to or firing a batch at a time at or after boundary − Eps — so
// that resuming after more feeds continues exactly like a replay of the
// complete stream. With final set the stream is closed: the loop runs to
// the end and flushes a backlog the policy would hold forever.
func (s *Session) run(final bool) error {
	limit := s.boundary - moldable.Eps
	for len(s.queue) > 0 || len(s.pending) > 0 {
		if !final && s.now >= limit {
			return nil
		}
		if err := s.ctx.Err(); err != nil {
			return fmt.Errorf("cluster: replay aborted: %w", err)
		}
		n := 0
		for n < len(s.queue) && s.queue[n].Release <= s.now+moldable.Eps {
			n++
		}
		s.pending = append(s.pending, s.queue[:n]...)
		s.queue = s.queue[n:]
		if len(s.pending) == 0 {
			if !final && s.queue[0].Release >= limit {
				return nil
			}
			s.now = s.queue[0].Release
			continue
		}
		fire := s.e.cfg.Policy.NextFire(s.now, s.pending)
		if fire > s.now+moldable.Eps {
			if len(s.queue) > 0 && s.queue[0].Release < fire {
				// An arrival lands before the fire time: admit it and ask
				// the policy again with the larger backlog.
				if !final && s.queue[0].Release >= limit {
					return nil
				}
				s.now = s.queue[0].Release
				continue
			}
			if !math.IsInf(fire, 1) {
				if !final && fire >= limit {
					return nil
				}
				s.now = fire
				continue
			}
			// The policy would wait forever for more arrivals: only a
			// closed stream flushes the backlog now.
			if !final {
				return nil
			}
		}

		br, advance, resub, err := s.runBatch()
		if err != nil {
			return err
		}
		s.report.Batches = append(s.report.Batches, br)
		if s.onBatch != nil {
			s.onBatch(br)
		}
		s.now += advance
		// Killed jobs rejoin the queue immediately: their release dates are
		// their kill instants, all at or before the new now.
		s.pending = append(s.pending[:0], resub...)
		s.batchIndex++
	}
	return nil
}
