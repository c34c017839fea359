// Package serve turns the offline grid replay machinery into a live,
// long-running scheduler service: clients submit moldable jobs over a
// concurrent ingest front end while the portfolio scheduler runs, instead
// of handing a finished arrival list to a batch replay.
//
// The architecture, front to back:
//
//   - A wall-clock pacer maps real time onto the grid's simulated event
//     time (with a configurable speedup, so tests compress hours into
//     milliseconds). Every accepted submission is stamped with the virtual
//     time of its arrival — the release date the replay machinery needs.
//   - Admission control guards the front door: a token-bucket rate limit
//     (wall-clock jobs per second) and a virtual-backlog limit (the same
//     per-processor backlog clock the grid router uses, measured against
//     the whole federation). Every rejection says how long to back off,
//     which the HTTP layer turns into 429 + Retry-After. An admitted job
//     is appended to the accepted stream — the paper's front-end queue —
//     under the same lock that stamps its release.
//   - A job registry tracks every admitted job through
//     queued → batched → scheduled → running → done, with per-job stretch
//     and bounded slowdown on completion.
//   - A periodic refresher derives those live states from one trusted
//     grid.Session. Every later submission carries a later release date,
//     so batches fired before the current virtual time are final (the
//     prefix argument of grid.Session and cluster.Session). Each tick
//     feeds only the jobs admitted since the last one, advances the
//     session to the virtual now, folds the newly committed routing
//     decisions and batches — plus the placements and kills of earlier
//     batches the clock has now passed — into the registry, and appends
//     their events to the flight recorder; a fork of the session, run to
//     completion, yields the provisional rest: the /metrics grid block
//     and whether a killed job is batched again. Every event the fork
//     adds falls at or after the virtual now, so the timelines serve the
//     flight recorder's events alone.
//   - Periodic JSON snapshots checkpoint the accepted stream and the
//     virtual clock; a restarted server restores them and resumes where
//     the old process stopped.
//   - Graceful drain stops admissions, feeds the rest of the stream,
//     finishes the trusted session and emits the final grid report — by
//     construction identical to an offline grid run of the same stream.
//
// A refresh thus costs O(new arrivals) replay work plus O(in-flight tail)
// for the fork. What still grows with the whole stream: the fork's sort
// of the metric samples when it finishes (not replay), snapshot writes, the
// SLO evaluation over the completed jobs, the /metrics distribution
// histograms and the grid aggregate's percentiles.
//
// The HTTP surface is in http.go: POST /jobs (single and bulk),
// GET /jobs/{id}, GET /metrics, GET /healthz, POST /drain.
package serve

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"time"

	"bicriteria/internal/cluster"
	"bicriteria/internal/flight"
	"bicriteria/internal/grid"
	"bicriteria/internal/logx"
	"bicriteria/internal/moldable"
	"bicriteria/internal/obs"
	"bicriteria/internal/slo"
	"bicriteria/internal/validate"
)

// Defaults of the optional Config knobs.
const (
	// DefaultRefreshInterval is the period of the live-state refresher.
	DefaultRefreshInterval = time.Second
	// DefaultSnapshotInterval is the period of the snapshot writer.
	DefaultSnapshotInterval = 10 * time.Second
)

// Config drives a scheduler service.
type Config struct {
	// Grid configures the federation behind the service exactly like an
	// offline grid replay: cluster shards, routing policy, router-level
	// admission steering, faults. OnDecision and OnBatch are forced to
	// nil: the service feeds its own registry and flight recorder. A
	// single-cluster service is a grid with one shard.
	Grid grid.Config
	// Speedup is the number of virtual time units per wall-clock second.
	// Zero means 1 (real time); tests use large values to compress load.
	Speedup float64
	// SubmitRate is the token-bucket refill in jobs per wall-clock second.
	// Zero disables rate limiting.
	SubmitRate float64
	// SubmitBurst is the bucket capacity; zero means max(1, ceil(rate)).
	SubmitBurst int
	// AdmitBacklog rejects submissions (429) while the service-wide
	// estimated per-processor backlog, in virtual time units, exceeds the
	// limit. Zero disables the check. This is the front-door guard; the
	// grid router's own AdmitBacklog steers between shards and never
	// rejects.
	AdmitBacklog float64
	// RefreshInterval is the period of the live-state refresher; zero
	// means DefaultRefreshInterval, negative disables periodic refreshes
	// (tests drive refreshes explicitly; drain still finalizes states).
	RefreshInterval time.Duration
	// SnapshotPath enables periodic JSON snapshots with restore-on-start:
	// if the file exists when the server is built, the stream, counters
	// and virtual clock are restored from it. Empty disables snapshots.
	SnapshotPath string
	// SnapshotInterval is the snapshot period; zero means
	// DefaultSnapshotInterval, negative disables the periodic writer
	// (drain still writes a final snapshot).
	SnapshotInterval time.Duration
	// Clock injects a wall clock for tests; nil means time.Now.
	Clock func() time.Time
	// Metrics injects a shared observability registry; nil means a fresh
	// one. Either way the server publishes its admission counters, state
	// gauges and latency distributions into it, threads it through the
	// federation (portfolio and routing timings land in the same scrape)
	// and serves it in the Prometheus text format at GET /metrics.prom.
	Metrics *obs.Registry
	// SLO, when non-nil, evaluates the deadline and tail-latency alerts
	// over the completed jobs after every refresh and drain; GET /alerts
	// serves the firing/resolved states and the alert gauges land in the
	// registry.
	SLO *slo.Spec
	// Logger receives the service's structured logs: request-ID-stamped
	// access logs (attached by Handler), admission rejections and the
	// snapshot/drain lifecycle. Nil means silence (a discard logger), so
	// a default service stays byte-quiet.
	Logger *slog.Logger
}

// Counters are the monotone admission statistics of a service.
type Counters struct {
	// Submitted counts accepted jobs, including jobs restored from a
	// snapshot.
	Submitted int `json:"submitted"`
	// Restored counts the subset of Submitted that came from a snapshot.
	Restored int `json:"restored,omitempty"`
	// RejectedRate and RejectedBacklog count submissions refused by the
	// token bucket and the virtual-backlog limit.
	RejectedRate    int `json:"rejected_rate_limit"`
	RejectedBacklog int `json:"rejected_backlog"`
}

// Rejection is the typed refusal of a submission: why, and how long the
// client should back off before retrying.
type Rejection struct {
	// Reason is "rate-limit", "backlog" or "draining".
	Reason string
	// RetryAfter is the suggested wall-clock back-off; zero for
	// "draining", which never clears.
	RetryAfter time.Duration
}

// Error implements error.
func (r *Rejection) Error() string {
	if r.RetryAfter > 0 {
		return fmt.Sprintf("serve: submission rejected (%s), retry after %s", r.Reason, r.RetryAfter)
	}
	return fmt.Sprintf("serve: submission rejected (%s)", r.Reason)
}

// DuplicateError refuses a job ID that was already admitted.
type DuplicateError struct{ ID int }

// Error implements error.
func (e *DuplicateError) Error() string {
	return fmt.Sprintf("serve: job ID %d was already submitted", e.ID)
}

// Accepted acknowledges one admitted job: the virtual release date the
// pacer stamped is what the final report's replay will use.
type Accepted struct {
	ID      int     `json:"id"`
	Release float64 `json:"release"`
}

// FinalReport is the outcome of a drained service.
type FinalReport struct {
	// Policy is the routing policy name and Jobs the number of jobs the
	// service admitted over its life.
	Policy string `json:"policy"`
	Jobs   int    `json:"jobs"`
	// VirtualNow is the virtual time at which the drain started.
	VirtualNow float64 `json:"virtual_now"`
	// Metrics is the grid-wide aggregate of the final replay — identical
	// to an offline grid run of the same submission stream.
	Metrics grid.Metrics `json:"metrics"`
	// Grid is the full underlying report (decisions, per-shard reports).
	Grid *grid.Report `json:"-"`
}

// Server is a live scheduler service around a grid federation.
type Server struct {
	cfg        Config
	totalProcs int
	pacer      *pacer
	reg        *registry

	// mu guards the admission state: the token bucket, the virtual
	// backlog clock, the counters, the draining flag and the accepted
	// stream. Admission is a short serialized section; the expensive work
	// (replays) happens outside it.
	mu       sync.Mutex
	bucket   *tokenBucket
	ready    float64
	counters Counters
	draining bool
	stream   []cluster.Job

	// runMu serializes the refresher and the drain, the users of the
	// trusted session and of everything folded from it below.
	runMu sync.Mutex
	// sess is the trusted replay of the accepted stream: fed up to
	// stream[:streamFed], advanced to the virtual time of the last
	// refresh.
	sess      *grid.Session
	streamFed int
	folded    folded

	// liveMu guards the latest refresh digest served by /metrics.
	liveMu      sync.RWMutex
	live        *grid.Metrics
	liveAt      float64
	refreshErr  error
	snapshotErr error
	// trustedTo is the virtual time the live state is trusted up to: -Inf
	// before the first refresh, the virtual now of the latest refresh,
	// +Inf after the drain. flightRec holds the flight events of
	// everything sess has committed; GET /jobs/{id}/timeline serves its
	// events before trustedTo's margin. rebatched holds the jobs the
	// latest refresh's fork batches beyond the committed report (nil
	// after the drain): a served kill of one of them is a resubmission,
	// not a loss. flightRec is written under liveMu too, so a timeline
	// never sees an event its boundary does not cover yet.
	flightRec *flight.Recorder
	trustedTo float64
	rebatched map[int]bool
	// sloSum is the latest SLO evaluation (nil while no SLO is configured
	// or no refresh has run); GET /alerts serves it.
	sloSum *slo.Summary
	// lastSnapshot is the wall time of the last successful snapshot write
	// (zero while none has been written); /healthz turns it into an age so
	// probes can spot a wedged snapshot loop.
	lastSnapshot time.Time

	// obs is the Prometheus-style registry behind GET /metrics.prom, and
	// the series below the refresher and the snapshot writer feed.
	obs             *obs.Registry
	refreshSeconds  *obs.Histogram
	refreshFed      *obs.Counter
	snapshotSeconds *obs.Histogram

	// logger is cfg.Logger, defaulted to a discard logger.
	logger *slog.Logger

	started  time.Time
	stopCh   chan struct{}
	stopOnce sync.Once
	loopWG   sync.WaitGroup

	drainOnce sync.Once
	final     *FinalReport
	drainErr  error
}

// NewServer validates the configuration, builds the federation, restores
// a snapshot when one exists, and starts the background loops (live-state
// refresher, snapshot writer). The server is live when NewServer returns;
// stop it with Drain.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Speedup < 0 || math.IsNaN(cfg.Speedup) || math.IsInf(cfg.Speedup, 0) {
		return nil, validate.Errorf("speedup", "speedup must be non-negative and finite, got %g", cfg.Speedup)
	}
	if cfg.Speedup == 0 {
		cfg.Speedup = 1
	}
	if cfg.SubmitRate < 0 || math.IsNaN(cfg.SubmitRate) || math.IsInf(cfg.SubmitRate, 0) {
		return nil, validate.Errorf("submit_rate", "submit rate must be non-negative and finite, got %g", cfg.SubmitRate)
	}
	if cfg.AdmitBacklog < 0 || math.IsNaN(cfg.AdmitBacklog) || math.IsInf(cfg.AdmitBacklog, 0) {
		return nil, validate.Errorf("admit_backlog", "admission backlog limit must be non-negative and finite, got %g", cfg.AdmitBacklog)
	}
	if cfg.RefreshInterval == 0 {
		cfg.RefreshInterval = DefaultRefreshInterval
	}
	if cfg.SnapshotInterval == 0 {
		cfg.SnapshotInterval = DefaultSnapshotInterval
	}
	// The service records decisions and batches itself, from the trusted
	// session's committed report.
	cfg.Grid.OnDecision = nil
	cfg.Grid.OnBatch = nil
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Logger == nil {
		cfg.Logger = logx.Discard()
	}
	if cfg.SLO != nil {
		spec := cfg.SLO.Normalized()
		if err := spec.Validate(); err != nil {
			return nil, validate.Prefix("slo", err)
		}
		cfg.SLO = &spec
	}
	// One registry for the whole process: shard portfolio latencies and
	// routing timings land in the same scrape as the service's own series.
	cfg.Grid.Metrics = cfg.Metrics
	fed, err := grid.New(cfg.Grid)
	if err != nil {
		return nil, validate.Prefix("grid", err)
	}
	total := 0
	for _, spec := range cfg.Grid.Clusters {
		total += spec.M
	}

	s := &Server{
		cfg:        cfg,
		totalProcs: total,
		reg:        newRegistry(),
		// The session lives as long as the server: the drain finishes it,
		// nothing cancels it.
		sess:      fed.NewSession(context.Background()),
		folded:    newFolded(len(cfg.Grid.Clusters)),
		flightRec: flight.NewRecorder(),
		trustedTo: math.Inf(-1),
		obs:       cfg.Metrics,
		logger:    cfg.Logger,
		stopCh:    make(chan struct{}),
	}
	s.registerServiceMetrics()
	offset := 0.0
	if cfg.SnapshotPath != "" {
		restored, err := s.restoreSnapshot(cfg.SnapshotPath)
		if err != nil {
			return nil, err
		}
		offset = restored
	}
	s.pacer = newPacer(cfg.Clock, cfg.Speedup, offset)
	s.started = s.pacer.wall()
	if cfg.SubmitRate > 0 {
		burst := cfg.SubmitBurst
		if burst <= 0 {
			burst = int(math.Ceil(cfg.SubmitRate))
		}
		s.bucket = newTokenBucket(cfg.SubmitRate, burst, s.started)
	}

	if cfg.RefreshInterval > 0 {
		s.loopWG.Add(1)
		go s.refreshLoop(cfg.RefreshInterval)
	}
	if cfg.SnapshotPath != "" && cfg.SnapshotInterval > 0 {
		s.loopWG.Add(1)
		go s.snapshotLoop(cfg.SnapshotInterval)
	}
	policy := "least-backlog"
	if cfg.Grid.Routing != nil {
		policy = cfg.Grid.Routing.Name()
	}
	s.logger.Info("server started",
		"clusters", len(cfg.Grid.Clusters),
		"procs", total,
		"policy", policy,
		"speedup", cfg.Speedup,
		"restored", s.counters.Restored,
		"slo", cfg.SLO != nil)
	return s, nil
}

// minWork is the front-door backlog contribution of a task: its least work
// over all allocations, the same quantity the grid router charges its
// virtual clocks with.
func minWork(t moldable.Task) float64 {
	w, _ := t.MinWork()
	return w
}

// Submit admits one job: validation, duplicate check, token bucket,
// virtual-backlog limit, in that order; an admitted job joins the accepted
// stream. Refusals are a *Rejection (back-off) or a *DuplicateError;
// validation failures are plain errors. The returned Accepted carries the
// virtual release date the pacer stamped.
func (s *Server) Submit(task moldable.Task) (Accepted, error) {
	if err := task.Validate(); err != nil {
		return Accepted{}, err
	}
	pmin, _ := task.MinTime()
	work := minWork(task)

	s.mu.Lock()
	defer s.mu.Unlock()
	// The clock is read, and the job appended to the stream, under the
	// admission mutex, so release dates are non-decreasing in stream order
	// and every job stamped before a capture's clock read is in its copy —
	// the properties the refresher's prefix rule builds on.
	now := s.pacer.wall()
	if s.draining {
		s.logger.Warn("submission rejected", "job", task.ID, "reason", "draining")
		return Accepted{}, &Rejection{Reason: "draining"}
	}
	if s.reg.has(task.ID) {
		s.logger.Warn("submission rejected", "job", task.ID, "reason", "duplicate")
		return Accepted{}, &DuplicateError{ID: task.ID}
	}
	if s.bucket != nil {
		if ok, retry := s.bucket.take(now); !ok {
			s.counters.RejectedRate++
			s.logger.Warn("submission rejected", "job", task.ID, "reason", "rate-limit", "retry_after", retry)
			return Accepted{}, &Rejection{Reason: "rate-limit", RetryAfter: retry}
		}
	}
	vnow := s.pacer.at(now)
	if s.cfg.AdmitBacklog > 0 {
		if backlog := s.ready - vnow; backlog > s.cfg.AdmitBacklog {
			s.counters.RejectedBacklog++
			retry := s.pacer.realDuration(backlog - s.cfg.AdmitBacklog)
			s.logger.Warn("submission rejected", "job", task.ID, "reason", "backlog", "backlog", backlog, "retry_after", retry)
			return Accepted{}, &Rejection{Reason: "backlog", RetryAfter: retry}
		}
	}
	s.stream = append(s.stream, cluster.Job{Task: task, Release: vnow})
	if s.ready < vnow {
		s.ready = vnow
	}
	s.ready += work / float64(s.totalProcs)
	s.counters.Submitted++
	s.reg.add(task.ID, task.Name, task.Weight, vnow, pmin)
	return Accepted{ID: task.ID, Release: vnow}, nil
}

// Status returns the live status of a submitted job.
func (s *Server) Status(id int) (JobStatus, bool) { return s.reg.get(id) }

// Jobs returns the number of admitted jobs.
func (s *Server) Jobs() int { return s.reg.len() }

// now returns the current virtual time.
func (s *Server) now() float64 { return s.pacer.now() }

// CountersSnapshot returns the current admission counters.
func (s *Server) CountersSnapshot() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}

// refreshLoop periodically refreshes the live job states.
func (s *Server) refreshLoop(every time.Duration) {
	defer s.loopWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
			err := s.refresh()
			s.liveMu.Lock()
			s.refreshErr = err
			s.liveMu.Unlock()
		}
	}
}

// refresh brings the live state up to the virtual time vnow of its
// capture: it feeds the trusted session the jobs admitted since the last
// refresh and advances it to vnow — every batch that fires is final, by
// the prefix argument of grid.Session, since every later submission is
// released at or after vnow — then folds what the session committed into
// the registry and the flight recorder. A fork of the session, finished,
// supplies the provisional rest: the /metrics grid block and the jobs it
// batches again. States beyond vnow (a scheduled start in the future)
// are provisional and never downgraded.
func (s *Server) refresh() error {
	start := time.Now()
	s.runMu.Lock()
	defer s.runMu.Unlock()
	jobs, vnow := s.capture(s.streamFed)
	if err := s.sess.Feed(jobs...); err != nil {
		return err
	}
	s.streamFed += len(jobs)
	s.refreshFed.Add(float64(len(jobs)))
	if s.streamFed == 0 {
		s.liveMu.Lock()
		s.liveAt = vnow
		s.liveMu.Unlock()
		return nil
	}
	if err := s.sess.AdvanceTo(vnow); err != nil {
		return err
	}
	prov, err := s.sess.Fork().Finish()
	if err != nil {
		return err
	}
	s.publish(s.sess.Committed(), prov, vnow)
	s.refreshSeconds.Observe(time.Since(start).Seconds())
	s.logger.Debug("refresh complete", "jobs", s.streamFed, "fed", len(jobs), "virtual_now", vnow)
	return nil
}

// capture copies the accepted stream from index from on, together with
// the virtual time of the capture, both under the admission mutex: every
// job stamped before the clock read is in the copy, and every job admitted
// after it is released at or after the returned time.
func (s *Server) capture(from int) ([]cluster.Job, float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]cluster.Job(nil), s.stream[from:]...), s.pacer.now()
}

// eps is the shared floating-point tolerance of the scheduling library.
const eps = moldable.Eps

// placement is one job's realized execution window.
type placement struct {
	id         int
	start, end float64
}

// folded is how far the trusted session's committed report has been
// folded into the registry and the flight recorder.
type folded struct {
	// decisions counts the decisions recorded in the flight recorder;
	// routed counts those applied to the registry, which trusts a
	// decision only before vnow's margin.
	decisions, routed int
	// batches[c] and placed[c] count shard c's folded batches and
	// schedule assignments.
	batches, placed []int
	// open holds the folded placements whose end vnow has not passed,
	// kills the folded kills not yet before vnow's margin, and killed
	// each job's kills that are.
	open   []placement
	kills  []cluster.KillEvent
	killed map[int]int
}

func newFolded(shards int) folded {
	return folded{batches: make([]int, shards), placed: make([]int, shards), killed: make(map[int]int)}
}

// publish folds a committed report into the live state and serves it:
// tr is the trusted session's committed report and prov the provisional
// report of a fork finished from it — or, at the drain, tr is the final
// report and prov nil, and everything is a fact.
func (s *Server) publish(tr, prov *grid.Report, vnow float64) {
	live, at := tr.Metrics, math.Inf(1)
	var rebatched map[int]bool
	if prov != nil {
		live, at, rebatched = prov.Metrics, vnow, forkBatched(tr, prov)
	}
	s.liveMu.Lock()
	s.fold(tr, prov, vnow)
	s.liveAt, s.trustedTo, s.rebatched = vnow, at, rebatched
	s.live = &live
	s.liveMu.Unlock()
	if s.cfg.SLO != nil {
		sum := slo.Evaluate(*s.cfg.SLO, s.reg.sloOutcomes())
		sum.Publish(s.obs)
		for _, a := range sum.Alerts {
			if a.State == slo.StateFiring {
				s.logger.Warn("slo alert firing",
					"alert", a.Name, "value", a.Value, "threshold", a.Threshold)
			}
		}
		s.liveMu.Lock()
		s.sloSum = sum
		s.liveMu.Unlock()
	}
}

// fold applies what the trusted session committed since the last fold,
// and what vnow has passed since, to the registry and the flight recorder
// (see publish for tr and prov). The registry keeps the prefix rules of a
// full replay at vnow: a routing decision is trusted once released before
// vnow's margin (the engines admit arrivals within eps of a fire time),
// every committed batch is — the session fires none inside the margin —
// and a placement shows scheduled, running or done by where vnow stands;
// a kill counts once before the margin. The caller holds liveMu, so a
// timeline never sees an event its boundary does not cover yet.
func (s *Server) fold(tr, prov *grid.Report, vnow float64) {
	final := prov == nil
	f := &s.folded
	for _, d := range tr.Decisions[f.decisions:] {
		s.flightRec.RecordDecision(d)
	}
	f.decisions = len(tr.Decisions)
	for ; f.routed < len(tr.Decisions); f.routed++ {
		d := tr.Decisions[f.routed]
		if !final && !(d.Release < vnow-eps) {
			break // decisions come in release order
		}
		s.reg.setRouting(d.JobID, d.Cluster)
	}
	for c, crep := range tr.Clusters {
		for _, b := range crep.Batches[f.batches[c]:] {
			s.flightRec.OnBatch(c, b)
			for _, id := range b.Jobs {
				s.reg.markBatched(id, b.Index)
			}
			// A batch's realized trace follows its placements in the
			// schedule; the assignment's own end is the one a replay
			// reports.
			for _, a := range crep.Schedule.Assignments[f.placed[c] : f.placed[c]+len(b.Placements)] {
				f.open = append(f.open, placement{id: a.TaskID, start: a.Start, end: a.End()})
			}
			f.placed[c] += len(b.Placements)
			f.kills = append(f.kills, b.KillEvents...)
		}
		f.batches[c] = len(crep.Batches)
	}
	open := f.open[:0]
	for _, p := range f.open {
		if !s.mark(p, vnow, final) {
			open = append(open, p)
		}
	}
	f.open = open
	kills := f.kills[:0]
	for _, k := range f.kills {
		if !final && !(k.Time < vnow-eps) {
			kills = append(kills, k)
			continue
		}
		f.killed[k.TaskID]++
		s.reg.markResubmitted(k.TaskID, f.killed[k.TaskID])
	}
	f.kills = kills
	if final {
		return
	}
	// A job a committed batch took in and an outage killed reruns in a
	// batch only the fork has fired yet: its provisional placement shows.
	for c, crep := range prov.Clusters {
		for _, a := range crep.Schedule.Assignments[f.placed[c]:] {
			if s.reg.batched(a.TaskID) {
				s.mark(placement{id: a.TaskID, start: a.Start, end: a.End()}, vnow, false)
			}
		}
	}
}

// mark applies a placement to the registry as vnow sees it and reports
// whether the job is done.
func (s *Server) mark(p placement, vnow float64, final bool) bool {
	switch {
	case final || p.end <= vnow:
		s.reg.markDone(p.id, p.start, p.end)
		return true
	case p.start <= vnow:
		s.reg.markRunning(p.id, p.start, p.end)
	default:
		s.reg.markScheduled(p.id, p.start, p.end)
	}
	return false
}

// forkBatched returns the jobs of the batches a fork fired beyond the
// trusted session's committed report. Those batches fall at or after the
// fork's start, past the timelines' margin, so none of their events is
// served; they only tell a trusted kill's resubmission from a loss.
func forkBatched(tr, prov *grid.Report) map[int]bool {
	ids := map[int]bool{}
	for c, crep := range prov.Clusters {
		for _, b := range crep.Batches[len(tr.Clusters[c].Batches):] {
			for _, id := range b.Jobs {
				ids[id] = true
			}
		}
	}
	return ids
}

// stopLoops stops the refresher and the snapshot writer, waiting for an
// in-flight refresh (a fold of one tick's arrivals) to finish.
func (s *Server) stopLoops() {
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.loopWG.Wait()
}

// Drain gracefully stops the service: admissions close (further submits
// are rejected with "draining"), the background loops stop, the
// trusted session takes the rest of the stream and finishes, every job is finalized in the registry, a final
// snapshot is written when snapshots are configured, and the grid report
// comes back. Drain is idempotent; later calls return the same report.
func (s *Server) Drain() (*FinalReport, error) {
	s.drainOnce.Do(func() {
		s.logger.Info("drain started")
		s.mu.Lock()
		s.draining = true
		s.mu.Unlock()
		s.stopLoops()

		s.runMu.Lock()
		defer s.runMu.Unlock()
		rest, vnow := s.capture(s.streamFed)
		jobs := s.streamFed + len(rest)
		err := s.sess.Feed(rest...)
		var rep *grid.Report
		if err == nil {
			rep, err = s.sess.Finish()
		}
		if err != nil {
			s.drainErr = err
			s.logger.Error("drain replay failed", "error", err)
			return
		}
		s.streamFed = jobs
		s.publish(rep, nil, vnow)
		s.liveMu.Lock()
		s.final = &FinalReport{
			Policy:     rep.Policy,
			Jobs:       jobs,
			VirtualNow: vnow,
			Metrics:    rep.Metrics,
			Grid:       rep,
		}
		s.liveMu.Unlock()
		if s.cfg.SnapshotPath != "" {
			if err := s.writeSnapshot(); err != nil {
				s.liveMu.Lock()
				s.snapshotErr = err
				s.liveMu.Unlock()
				s.logger.Error("final snapshot failed", "error", err)
			}
		}
		s.logger.Info("drain complete", "jobs", jobs, "virtual_now", vnow)
	})
	return s.final, s.drainErr
}
