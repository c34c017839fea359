// Package cluster is a long-running, event-driven cluster scheduling
// engine: the layer that composes the paper's pieces — the on-line batch
// framework, the DEMT scheduler and its baselines, node reservations and
// the discrete-event simulator — into one system.
//
// The engine consumes a stream of job arrivals (SWF traces via
// internal/trace, or the Poisson/burst generator of internal/workload),
// accumulates them into batches under a pluggable batching policy, and
// schedules every batch with an algorithm portfolio: the members plan the
// batch one after the other and the engine commits the best plan under a
// configurable objective. The batch's task table (its one validation),
// makespan lower bound and two-shelf dual approximation are computed at
// most once, when first needed, and shared by the engine and the members
// built by DefaultPortfolio. The committed plan is checked with
// Schedule.Validate; losing plans are scored but not checked, except under
// racing, where each launched plan is checked before it may cut the race.
// Committed plans are placed around node reservations and executed on the
// discrete-event simulator with optionally perturbed runtimes, so the
// *realized* completion of a batch — not the planned estimate — decides
// when the next batch fires. Per-batch reports stream out with the running
// utilization; the full metrics (flow, stretch and slowdown tails,
// portfolio winner counts) come with the final report.
//
// Every run is deterministic for a given configuration: the members run in
// a fixed launch order and the portfolio winner is chosen by score with
// ties broken in portfolio order, so two replays are bit-identical.
package cluster

import (
	"fmt"
	"math"
	"sort"
	"time"

	"bicriteria/internal/listsched"
	"bicriteria/internal/moldable"
	"bicriteria/internal/obs"
	"bicriteria/internal/reservation"
	"bicriteria/internal/schedule"
	"bicriteria/internal/sim"
	"bicriteria/internal/validate"
	"bicriteria/internal/workload"
)

// Config drives a cluster engine.
type Config struct {
	// M is the number of processors of the machine.
	M int
	// Portfolio lists the candidate algorithms run on every batch. Empty
	// means DefaultPortfolio(nil). Names must be unique.
	Portfolio []Algorithm
	// Objective selects the commit criterion; the zero value minimizes the
	// batch makespan.
	Objective Objective
	// Policy decides when batches fire; nil means BatchOnIdle().
	Policy BatchPolicy
	// Reservations blocks processors during absolute time windows for the
	// whole run. Planned and realized executions both respect them.
	Reservations []reservation.Reservation
	// Perturb maps planned task durations to realized ones (user estimates
	// are rarely exact); nil means exact execution. It must be a pure
	// function of (taskID, planned) for replays to be deterministic — see
	// UniformNoise.
	Perturb func(taskID int, planned float64) float64
	// Racing enables the portfolio early cutoff: members run one at a
	// time in a deterministic launch order, and the batch commits as soon
	// as one candidate's score is provably within Racing.Cutoff of the
	// batch lower bound. Members past the cut never start. The zero value
	// (cutoff 0) disables racing: every member runs to completion.
	Racing Racing
	// Outages lists absolute-time machine down windows (node crash/repair
	// spans, typically one cluster of a faults plan). A job running when
	// an outage begins is killed and re-enqueued into the next batch under
	// Replan; outages that have already begun when a batch fires are
	// planned around like reservations (the runtime knows a node is dead
	// *now*, never that it will die later). Empty means no faults and
	// behaviour bit-identical to an engine without the field.
	Outages []schedule.Window
	// Replan selects how killed jobs are resubmitted; the zero value
	// restarts them from scratch.
	Replan ReplanPolicy
	// MaxRetries caps the kills one job may survive before the engine
	// abandons it as lost; zero means DefaultMaxRetries.
	MaxRetries int
	// OnBatch, when non-nil, receives every batch report as soon as the
	// batch completes: the streaming interface for long replays.
	OnBatch func(BatchReport)
	// Metrics, when non-nil, receives wall-clock timing histograms of the
	// scheduling hot path: per-candidate portfolio latency and per-batch
	// planning time. Timings are observational only — they never influence
	// the committed schedules, so instrumented replays stay bit-identical.
	Metrics *obs.Registry
}

// BatchReport describes one committed batch.
type BatchReport struct {
	// Index is the batch number (0-based).
	Index int `json:"Index"`
	// FireTime is the absolute time the batch fired.
	FireTime float64 `json:"FireTime"`
	// Jobs lists the task IDs of the batch, sorted.
	Jobs []int `json:"Jobs"`
	// Winner is the name of the committed algorithm.
	Winner string `json:"Winner"`
	// Candidates reports every portfolio member's score, in portfolio
	// order.
	Candidates []Candidate `json:"Candidates"`
	// CutOff lists the algorithms cancelled by the racing early cutoff on
	// this batch, in portfolio order. Empty (and absent from serialized
	// reports) when racing is disabled or the cutoff never fired, so
	// non-racing reports keep their exact wire format.
	CutOff []string `json:",omitempty"`
	// PlannedMakespan is the batch-relative makespan of the committed plan
	// (after placement around reservations).
	PlannedMakespan float64 `json:"PlannedMakespan"`
	// RealizedMakespan is the batch-relative makespan after simulated
	// execution with perturbed runtimes.
	RealizedMakespan float64 `json:"RealizedMakespan"`
	// Delayed counts tasks of this batch that started later than planned.
	Delayed int `json:"Delayed"`
	// KillEvents lists the jobs outages killed during this batch's
	// realized execution, in dispatch order, with their absolute start
	// and kill times. They rejoin the queue (or are lost).
	KillEvents []KillEvent `json:"KillEvents"`
	// LowerBound is the dual-approximation makespan lower bound of the
	// batch instance (section 3.3 of the paper) — the reference value the
	// flight recorder and the SLO engine anchor per-job deadlines to.
	// Excluded from serialized reports like the other provenance fields.
	LowerBound float64 `json:"-"`
	// Placements carries the realized per-task executions of this batch
	// (absolute start/end, chosen allotment) for streaming observers; the
	// report's Schedule remains the wire-format source.
	Placements []Placement `json:"-"`
	// Utilization is the run's Metrics.Utilization as of the end of this
	// batch.
	Utilization float64 `json:"Utilization"`
}

// Placement is one task's realized execution within a batch: absolute
// start and end times and the allotment (processor count) the committed
// plan chose for it.
type Placement struct {
	TaskID int
	Start  float64
	End    float64
	Procs  int
}

// Report is the outcome of a full run.
type Report struct {
	// Schedule holds the realized placements with absolute start times and
	// realized durations — a trace of the run, not a plan.
	Schedule *schedule.Schedule
	// Batches describes every committed batch in order.
	Batches []BatchReport
	// Metrics is the final aggregate.
	Metrics Metrics
	// Blocked lists, per reservation (in input order), the concrete
	// processors blocked for it.
	Blocked [][]int
	// Lost lists the jobs abandoned after MaxRetries kills, sorted by the
	// time they were given up.
	Lost []int
}

// Engine is a reusable cluster engine with a fixed configuration.
type Engine struct {
	cfg Config
	// blocked holds the concrete processors assigned to every reservation
	// (in input order), fixed at construction time; reserved is the same
	// as down windows in absolute time.
	blocked  [][]int
	reserved []schedule.Window
	// ownMembers is set when every portfolio member was built by this
	// package (DEMTAlgorithm, DefaultPortfolio), all of which only read
	// the batch instance.
	ownMembers bool
}

// New validates the configuration eagerly and builds an engine. Bad
// configurations fail here — before the first batch fires — with a
// validate.Error naming the offending field path.
func New(cfg Config) (*Engine, error) {
	if cfg.M < 1 {
		return nil, validate.Errorf("m", "machine needs at least one processor, got %d", cfg.M)
	}
	if len(cfg.Portfolio) == 0 {
		cfg.Portfolio = DefaultPortfolio(nil)
	}
	names := make(map[string]bool, len(cfg.Portfolio))
	for i, a := range cfg.Portfolio {
		if a.Name == "" || a.Run == nil {
			return nil, validate.Errorf(validate.Index("portfolio", i), "portfolio algorithms need a name and a Run function")
		}
		if names[a.Name] {
			return nil, validate.Errorf(validate.Index("portfolio", i), "duplicate portfolio algorithm %q", a.Name)
		}
		names[a.Name] = true
	}
	if err := cfg.Objective.validate(); err != nil {
		return nil, validate.Prefix("objective", err)
	}
	if err := cfg.Racing.validate(); err != nil {
		return nil, validate.Prefix("racing", err)
	}
	if cfg.Policy == nil {
		cfg.Policy = BatchOnIdle()
	}
	for i, r := range cfg.Reservations {
		if err := r.Validate(cfg.M); err != nil {
			return nil, validate.Prefix(validate.Index("reservations", i), err)
		}
	}
	if err := cfg.Replan.validate(); err != nil {
		return nil, validate.Prefix("replan", err)
	}
	if cfg.MaxRetries < 0 {
		return nil, validate.Errorf("max_retries", "negative max retries %d", cfg.MaxRetries)
	}
	for i, w := range cfg.Outages {
		if math.IsNaN(w.Start) || math.IsNaN(w.End) || math.IsInf(w.Start, 0) || math.IsInf(w.End, 0) ||
			w.Start < 0 || w.End <= w.Start {
			return nil, validate.Errorf(validate.Index("outages", i), "outage window [%g, %g) is invalid", w.Start, w.End)
		}
		for _, p := range w.Procs {
			if p < 0 || p >= cfg.M {
				return nil, validate.Errorf(validate.Index("outages", i), "outage window uses processor %d outside the %d-processor machine", p, cfg.M)
			}
		}
	}
	blocked, err := reservation.AssignProcs(cfg.M, cfg.Reservations)
	if err != nil {
		return nil, err
	}
	reserved := make([]schedule.Window, len(cfg.Reservations))
	for i, r := range cfg.Reservations {
		reserved[i] = schedule.Window{Procs: blocked[i], Start: r.Start, End: r.End}
	}
	ownMembers := true
	for _, a := range cfg.Portfolio {
		ownMembers = ownMembers && a.plan != nil
	}
	return &Engine{cfg: cfg, blocked: blocked, reserved: reserved, ownMembers: ownMembers}, nil
}

// jobInfo caches the per-job quantities the metrics need.
type jobInfo struct {
	release float64
	pmin    float64
	weight  float64
}

// runBatch schedules, places and executes one batch of the pending jobs
// firing at the session's clock, committing its realized trace into the
// report. It returns the batch report, how far the batch advances the
// clock (its realized makespan, or the last kill instant if an outage cut
// the batch short) and the killed jobs to re-enqueue.
func (s *Session) runBatch() (BatchReport, float64, []Job, error) {
	e, ctx, index, now, pending := s.e, s.ctx, s.batchIndex, s.now, s.pending
	infos, acc, report, fstate := s.infos, s.acc, s.report, s.fstate
	// The batch instance shares the pending jobs' time vectors, cut to the
	// machine and capacity-clipped, instead of cloning them: this package's
	// members, placement and sim.Execute only read them, and an append by
	// one would copy rather than overwrite. A portfolio with a member from
	// elsewhere gets a copy, which that member's Run may write.
	tasks := make([]moldable.Task, len(pending))
	ids := make([]int, len(pending))
	for i := range pending {
		t := pending[i].Task
		k := min(len(t.Times), e.cfg.M)
		t.Times = t.Times[:k:k]
		tasks[i] = t
		ids[i] = t.ID
	}
	sort.Ints(ids)
	inst := &moldable.Instance{M: e.cfg.M, Tasks: tasks}
	if !e.ownMembers {
		inst = moldable.NewInstance(e.cfg.M, tasks)
	}

	planStart := time.Now() //lint:allow nowallclock wall-clock feeds the obs metrics only, never a scheduling decision
	// One facts value per session, reset for every batch: the members of
	// the last batch are done with it before the next one fires.
	if s.facts == nil {
		s.facts = new(batchFacts)
	}
	*s.facts = batchFacts{inst: inst}
	facts := s.facts
	cands, scheds, win, err := runPortfolio(ctx, facts, e.cfg.Portfolio, e.cfg.Objective, s.metrics, e.cfg.Racing, s.race)
	if err != nil {
		return BatchReport{}, 0, nil, fmt.Errorf("cluster: batch %d: %w", index, err)
	}
	planned := scheds[win]
	var cutOff []string
	for i := range cands {
		if cands[i].Cancelled {
			cutOff = append(cutOff, cands[i].Name)
		}
	}

	// Re-place the winning plan around the reservation windows still open
	// at (or after) the batch's fire time, expressed batch-relative — plus
	// the outages that have already begun, because the runtime knows those
	// nodes are down and replans around the shrunken machine. Outages that
	// have not started yet stay invisible to the planner: they hit the
	// simulated execution as surprises.
	reserved := relative(nil, e.reserved, now, false)
	down := reserved
	if len(e.cfg.Outages) > 0 {
		down = relative(clip(reserved), e.cfg.Outages, now, true)
	}
	if len(down) > 0 {
		placed, err := listsched.InsertionWithReservations(e.cfg.M, down, reservation.PriorityItems(planned))
		if err != nil {
			return BatchReport{}, 0, nil, fmt.Errorf("cluster: batch %d: placing around reservations: %w", index, err)
		}
		if err := placed.Validate(inst, nil); err != nil {
			return BatchReport{}, 0, nil, fmt.Errorf("cluster: batch %d: reservation placement is invalid: %w", index, err)
		}
		planned = placed
	}
	if s.metrics != nil {
		s.metrics.Histogram("bicrit_batch_schedule_seconds",
			"Wall-clock time planning one batch: portfolio run, scoring and reservation placement.",
			obs.TimeBuckets()).Observe(time.Since(planStart).Seconds()) //lint:allow nowallclock wall-clock feeds the obs metrics only, never a scheduling decision
	}

	simRes, err := sim.Execute(inst, planned, &sim.Options{
		Perturb:  e.cfg.Perturb,
		Blocked:  reserved,
		Failures: relative(nil, e.cfg.Outages, now, false),
	})
	if err != nil {
		return BatchReport{}, 0, nil, fmt.Errorf("cluster: batch %d: %w", index, err)
	}

	placements := make([]Placement, 0, len(simRes.Traces))
	for _, tr := range simRes.Traces {
		report.Schedule.Add(schedule.Assignment{
			TaskID:   tr.TaskID,
			Start:    now + tr.Start,
			NProcs:   len(tr.Procs),
			Procs:    append([]int(nil), tr.Procs...),
			Duration: tr.End - tr.Start,
		})
		placements = append(placements, Placement{
			TaskID: tr.TaskID,
			Start:  now + tr.Start,
			End:    now + tr.End,
			Procs:  len(tr.Procs),
		})
		info, _ := infos.Get(tr.TaskID)
		acc.observeJob(info.release, now+tr.End, info.pmin, info.weight)
		if fstate != nil && fstate.killedEver[tr.TaskID] {
			acc.recovered++
		}
	}
	busyTime := 0.0
	for _, b := range simRes.BusyTime {
		busyTime += b
	}
	acc.observeBatch(cands[win].Name, busyTime, simRes.Delayed)

	advance := simRes.Makespan
	var resub []Job
	var killEvents []KillEvent
	if len(simRes.Killed) > 0 {
		// The batch's tasks by ID, as scheduled (a resubmitted job may
		// already carry checkpoint-scaled times).
		byID := make(map[int]moldable.Task, len(pending))
		for _, j := range pending {
			byID[j.Task.ID] = j.Task
		}
		for _, k := range simRes.Killed {
			if k.KilledAt > advance {
				advance = k.KilledAt
			}
			killEvents = append(killEvents, KillEvent{TaskID: k.TaskID, Batch: index, Start: now + k.Start, Time: now + k.KilledAt})
			fstate.killedEver[k.TaskID] = true
			fstate.retries[k.TaskID]++
			acc.killed++
			if fstate.retries[k.TaskID] > fstate.maxRetries {
				acc.lost++
				report.Lost = append(report.Lost, k.TaskID)
				continue
			}
			acc.resubmitted++
			frac := 0.0
			if k.Duration > 0 {
				frac = (k.KilledAt - k.Start) / k.Duration
			}
			resub = append(resub, Job{
				Task:    fstate.replan.resubmit(byID[k.TaskID], frac),
				Release: now + k.KilledAt,
			})
		}
	}

	return BatchReport{
		Index:            index,
		FireTime:         now,
		Jobs:             ids,
		Winner:           cands[win].Name,
		Candidates:       cands,
		CutOff:           cutOff,
		PlannedMakespan:  planned.Makespan(),
		RealizedMakespan: simRes.Makespan,
		Delayed:          simRes.Delayed,
		KillEvents:       killEvents,
		LowerBound:       facts.cmaxLB(),
		Placements:       placements,
		Utilization:      acc.utilization(),
	}, advance, resub, nil
}

// relative appends to dst the windows still open at now, shifted into
// batch-relative time with their starts clamped at 0. With begun set it
// keeps only the windows that have already begun at now.
func relative(dst, windows []schedule.Window, now float64, begun bool) []schedule.Window {
	for _, w := range windows {
		if w.End <= now+moldable.Eps || (begun && w.Start > now+moldable.Eps) {
			continue
		}
		dst = append(dst, schedule.Window{Procs: w.Procs, Start: max(w.Start-now, 0), End: w.End - now})
	}
	return dst
}

// JobsFromArrivals adapts a generated arrival stream to the engine's input.
func JobsFromArrivals(arrivals []workload.Arrival) []Job {
	jobs := make([]Job, len(arrivals))
	for i, a := range arrivals {
		jobs[i] = Job{Task: a.Task, Release: a.Submit}
	}
	return jobs
}

// UniformNoise builds a deterministic runtime perturbation: every task's
// realized duration is its planned duration scaled by a uniform factor in
// [1-frac, 1+frac], drawn from a stream keyed by (seed, taskID) so the
// result does not depend on simulation order. The draw is the first
// Float64 of rand.New(rand.NewSource(seed ^ (taskID+1)·0x9E3779B9)),
// bit for bit, but evaluated in O(1) per call from the source's seeding
// formula instead of by seeding a generator (see firstFloat64). A frac of
// 0 returns nil (exact execution); a frac outside [0, 1) is rejected,
// since any other factor range could produce non-positive durations.
func UniformNoise(frac float64, seed int64) (func(taskID int, planned float64) float64, error) {
	if frac == 0 {
		return nil, nil
	}
	if frac < 0 || frac >= 1 || math.IsNaN(frac) {
		return nil, fmt.Errorf("cluster: noise fraction must lie in [0, 1), got %g", frac)
	}
	return func(taskID int, planned float64) float64 {
		return planned * (1 - frac + 2*frac*firstFloat64(seed^(int64(taskID)+1)*0x9E3779B9))
	}, nil
}
