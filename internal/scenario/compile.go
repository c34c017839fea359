package scenario

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"sync"
	"time"

	"bicriteria/internal/cluster"
	"bicriteria/internal/core"
	"bicriteria/internal/faults"
	"bicriteria/internal/flight"
	"bicriteria/internal/grid"
	"bicriteria/internal/obs"
	"bicriteria/internal/reservation"
	"bicriteria/internal/serve"
	"bicriteria/internal/slo"
	"bicriteria/internal/trace"
	"bicriteria/internal/validate"
	"bicriteria/internal/workload"
)

// Observer streams a run's events as they happen. Every field is
// optional; nil callbacks are skipped. On a concurrent grid replay the
// shard events are serialized by the runner, so callbacks never run
// concurrently with each other.
type Observer struct {
	// Batch receives every committed batch, tagged with its cluster index
	// (0 for the single topology). The batch's KillEvents are the jobs an
	// outage killed in it.
	Batch func(cluster int, br cluster.BatchReport)
	// Decision receives every routing decision of a grid-topology run in
	// stream order (none for a single cluster); Migrated marks the ones
	// that moved a job off a dark shard.
	Decision func(d grid.Decision)
}

// Report is the unified outcome of a scenario run: a superset of the
// cluster and grid reports. Exactly one of Cluster and Grid is non-nil,
// matching the topology.
type Report struct {
	// Topology echoes the compiled scenario's topology.
	Topology Topology
	// Jobs is the number of jobs of the replayed stream.
	Jobs int
	// Cluster is the report of a one-shard grid's shard (single topology).
	Cluster *cluster.Report
	// Grid is the federation report (grid topology).
	Grid *grid.Report
	// SLO is the SLO summary axis — deadline misses per cluster, tail
	// values and alert states. Non-nil only when the scenario declared an
	// SLO block; the evaluation is deterministic, so concurrent and
	// sequential replays report identical summaries.
	SLO *slo.Summary
}

// Makespan returns the realized makespan of the run, whatever the
// topology.
func (r *Report) Makespan() float64 {
	if r.Grid != nil {
		return r.Grid.Metrics.Makespan
	}
	return r.Cluster.Metrics.Makespan
}

// WeightedCompletion returns the weighted sum of completion times.
func (r *Report) WeightedCompletion() float64 {
	if r.Grid != nil {
		return r.Grid.Metrics.WeightedCompletion
	}
	return r.Cluster.Metrics.WeightedCompletion
}

// Utilization returns the realized machine utilization in [0, 1].
func (r *Report) Utilization() float64 {
	if r.Grid != nil {
		return r.Grid.Metrics.Utilization
	}
	return r.Cluster.Metrics.Utilization
}

// MeanStretch returns the mean job stretch.
func (r *Report) MeanStretch() float64 {
	if r.Grid != nil {
		return r.Grid.Metrics.MeanStretch
	}
	return r.Cluster.Metrics.MeanStretch
}

// decisions returns the routing decisions of the run in stream order
// (none for the single topology).
func (r *Report) decisions() []grid.Decision {
	if r.Grid != nil {
		return r.Grid.Decisions
	}
	return nil
}

// clusters returns the cluster reports of the run by cluster index (the
// single topology's one cluster is index 0).
func (r *Report) clusters() []*cluster.Report {
	if r.Grid != nil {
		return r.Grid.Clusters
	}
	return []*cluster.Report{r.Cluster}
}

// Info describes what a scenario compiled to: the resolved facts the
// report renderers need (policy names, plan sizes) without re-deriving
// them from the spec.
type Info struct {
	// Topology and Sizes echo the compiled scenario.
	Topology Topology
	Sizes    []int
	// Jobs is the size of the compiled job stream.
	Jobs int
	// BatchPolicy is the Name() of the (per-shard) batching policy and
	// Objective the commit criterion's name.
	BatchPolicy string
	Objective   string
	// Routing is the routing policy's name.
	Routing string
	// Reservations and Outages count the reservations and fault windows
	// of a one-shard grid (single topology); Plan is the full fault plan
	// (nil without a faults section).
	Reservations int
	Outages      int
	Plan         *faults.Plan
	// Replan is the replan policy kind's name ("restart"/"checkpoint").
	Replan string
}

// Runner is a compiled scenario, ready to replay through the grid
// federation (a single cluster is a one-shard grid). Observe (optional)
// must be called before Run; Run may be called repeatedly — every replay
// is deterministic and starts from scratch.
type Runner interface {
	// Info returns the compiled facts (policy names, stream size, plan).
	Info() Info
	// Observe installs the event callbacks of subsequent Runs.
	Observe(Observer)
	// Flight registers a flight recorder: every subsequent successful Run
	// resets it and fills it from the finished report — the stream's
	// submissions, then every decision, batch and kill. Pass nil to
	// detach.
	Flight(*flight.Recorder)
	// Jobs returns the compiled job stream in stream order: generated,
	// read from arrivals.file or converted from an SWF trace. The slice is
	// the runner's own; callers must not modify it.
	Jobs() []cluster.Job
	// Run replays the stream through the compiled engine. Cancelling the
	// context aborts the replay between batches without deadlock;
	// errors.Is(err, ctx.Err()) holds on the returned error.
	Run(ctx context.Context) (*Report, error)
}

// Compile validates the scenario eagerly — every constructor runs before
// any goroutine spawns, so a bad spec fails with a *ValidationError
// naming the field path — loads or generates the job stream and the
// fault plan, and returns the Runner. Both topologies compile to the grid
// federation: a single cluster is a one-shard grid.
func Compile(s Scenario) (Runner, error) {
	s = s.Normalized()
	if err := s.validate(); err != nil {
		return nil, err
	}
	jobs, err := buildJobs(s)
	if err != nil {
		return nil, err
	}
	plan, err := buildFaults(s, jobs)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	cfg, err := gridConfig(s, plan, reg)
	if err != nil {
		return nil, err
	}
	// Eager validation: surface config errors now, not at Run.
	if _, err := grid.New(cfg); err != nil {
		return nil, err
	}
	return &runner{scn: s, cfg: cfg, jobs: jobs, plan: plan, reg: reg}, nil
}

// ServeConfig compiles the scenario into a live-service configuration:
// the grid section exactly as Compile builds it (a single cluster is a
// grid with one shard), plus the pacing of the optional service section.
func ServeConfig(s Scenario) (serve.Config, error) {
	s = s.Normalized()
	if err := s.validate(); err != nil {
		return serve.Config{}, err
	}
	// The service ingests live submissions: a replayed stream would fight
	// the front door for job IDs.
	if !s.Arrivals.generated() {
		return serve.Config{}, validate.Errorf("arrivals", "a service scenario cannot replay a file or trace; submissions arrive over HTTP")
	}
	plan, err := buildFaults(s, nil)
	if err != nil {
		return serve.Config{}, err
	}
	// One registry for the whole service: the DEMT phase timings of the
	// shard portfolios land in the same scrape as the server's own series.
	reg := obs.NewRegistry()
	gcfg, err := gridConfig(s, plan, reg)
	if err != nil {
		return serve.Config{}, err
	}
	cfg := serve.Config{Grid: gcfg, Metrics: reg}
	if s.SLO != nil {
		spec := s.SLO.spec()
		cfg.SLO = &spec
	}
	if svc := s.Service; svc != nil {
		cfg.Speedup = svc.Speedup
		cfg.SubmitRate = svc.SubmitRate
		cfg.SubmitBurst = svc.SubmitBurst
		cfg.AdmitBacklog = svc.AdmitBacklog
		cfg.RefreshInterval = time.Duration(svc.RefreshSeconds * float64(time.Second))
		cfg.SnapshotPath = svc.SnapshotPath
		cfg.SnapshotInterval = time.Duration(svc.SnapshotSeconds * float64(time.Second))
	}
	return cfg, nil
}

// ---------------------------------------------------------------------------
// Spec resolution: a zero knob means its default, so a scenario file
// names only what it changes.
// ---------------------------------------------------------------------------

// Default knob values of the batching policies and the combined
// objective.
const (
	DefaultInterval   = 25
	DefaultWorkFactor = 4
	DefaultMaxDelay   = 50
	DefaultAlpha      = 0.5
)

func parseWorkloadKind(kind string) (workload.Kind, error) {
	if kind == "" {
		kind = "mixed"
	}
	return workload.ParseKind(kind)
}

func parseDistribution(law string) (workload.Distribution, error) {
	return workload.ParseDistribution(law)
}

func parseRoutingPolicy(policy string) (grid.RoutingPolicy, error) {
	if policy == "" {
		policy = "least-backlog"
	}
	return grid.ParsePolicy(policy)
}

// workloadSeed resolves the task-stream seed.
func (s Scenario) workloadSeed() int64 {
	if s.Workload.Seed != 0 {
		return s.Workload.Seed
	}
	return s.Seed
}

// faultSeed resolves the fault-plan sub-seed: explicit when set,
// otherwise derived from the master seed with FaultSeedSalt.
func (s Scenario) faultSeed() int64 {
	if s.Faults != nil && s.Faults.Seed != 0 {
		return s.Faults.Seed
	}
	return s.Seed ^ FaultSeedSalt
}

// racing resolves the racing section into the engine's configuration: the
// zero value (racing disabled) without a section, otherwise the cutoff
// plus the bandit seed, explicit when set and derived from the master seed
// with RaceSeedSalt otherwise.
func (s Scenario) racing() cluster.Racing {
	if s.Racing == nil {
		return cluster.Racing{}
	}
	seed := s.Racing.Seed
	if seed == 0 {
		seed = s.Seed ^ RaceSeedSalt
	}
	return cluster.Racing{Cutoff: s.Racing.Cutoff, Bandit: s.Racing.Bandit, Seed: seed}
}

// batchPolicy builds the batching policy of a machine of m processors.
func (s Scenario) batchPolicy(m int) (cluster.BatchPolicy, error) {
	interval, workFactor, maxDelay := s.Batch.Interval, s.Batch.WorkFactor, s.Batch.MaxDelay
	if interval == 0 {
		interval = DefaultInterval
	}
	if workFactor == 0 {
		workFactor = DefaultWorkFactor
	}
	if maxDelay == 0 {
		maxDelay = DefaultMaxDelay
	}
	switch s.Batch.Policy {
	case "", "idle":
		return cluster.BatchOnIdle(), nil
	case "interval":
		return cluster.FixedInterval(interval)
	case "adaptive":
		return cluster.AdaptiveBacklog(workFactor*float64(m), maxDelay)
	}
	return nil, validate.Errorf("batch.policy", "unknown batching policy %q", s.Batch.Policy)
}

// objective builds the commit objective.
func (s Scenario) objective() (cluster.Objective, error) {
	alpha := s.Objective.Alpha
	if alpha == 0 {
		alpha = DefaultAlpha
	}
	switch s.Objective.Kind {
	case "", "makespan":
		return cluster.Objective{Kind: cluster.ObjectiveMakespan}, nil
	case "minsum":
		return cluster.Objective{Kind: cluster.ObjectiveWeightedCompletion}, nil
	case "combined":
		return cluster.Objective{Kind: cluster.ObjectiveCombined, Alpha: alpha}, nil
	}
	return cluster.Objective{}, validate.Errorf("objective.kind", "unknown objective %q", s.Objective.Kind)
}

// replanPolicy builds the killed-job replan policy of the faults section.
func (s Scenario) replanPolicy() (cluster.ReplanPolicy, error) {
	if s.Faults == nil {
		return cluster.ReplanPolicy{}, nil
	}
	kindName := s.Faults.Replan
	if kindName == "" {
		kindName = "restart"
	}
	kind, err := cluster.ParseReplanKind(kindName)
	if err != nil {
		return cluster.ReplanPolicy{}, validate.Errorf("faults.replan", "%v", err)
	}
	return cluster.ReplanPolicy{Kind: kind, Credit: s.Faults.CheckpointCredit}, nil
}

// perturb builds the runtime-noise function of cluster index i: the
// single topology perturbs with the raw seed, the grid decorrelates the
// shards with seed ^ (i+1)*0x9E3779B9. cmd/bicrit's goldens pin both.
func (s Scenario) perturb(i int) (func(taskID int, planned float64) float64, error) {
	seed := s.Seed
	if s.Topology == TopologyGrid {
		seed = s.Seed ^ int64(i+1)*0x9E3779B9
	}
	fn, err := cluster.UniformNoise(s.Noise, seed)
	if err != nil {
		return nil, validate.Errorf("noise", "%v", err)
	}
	return fn, nil
}

// reservations converts one cluster's reservation specs.
func (c Cluster) reservations() []reservation.Reservation {
	if len(c.Reservations) == 0 {
		return nil
	}
	out := make([]reservation.Reservation, len(c.Reservations))
	for i, r := range c.Reservations {
		out[i] = reservation.Reservation{Procs: r.Procs, Start: r.Start, End: r.End}
	}
	return out
}

// buildJobs loads or generates the job stream.
func buildJobs(s Scenario) ([]cluster.Job, error) {
	switch {
	case s.Arrivals.Trace != "":
		f, err := os.Open(s.Arrivals.Trace)
		if err != nil {
			return nil, validate.Errorf("arrivals.trace", "%v", err)
		}
		defer f.Close()
		records, err := trace.Parse(f)
		if err != nil {
			return nil, validate.Errorf("arrivals.trace", "%v", err)
		}
		tasks := trace.ToTasks(records, s.maxMachines(), nil)
		releases := trace.Releases(records)
		jobs := make([]cluster.Job, len(tasks))
		for i, t := range tasks {
			jobs[i] = cluster.Job{Task: t, Release: releases[t.ID]}
		}
		return jobs, nil
	case s.Arrivals.File != "":
		arrivals, _, err := workload.LoadArrivals(s.Arrivals.File)
		if err != nil {
			return nil, validate.Errorf("arrivals.file", "%v", err)
		}
		return cluster.JobsFromArrivals(arrivals), nil
	default:
		kind, err := parseWorkloadKind(s.Workload.Kind)
		if err != nil {
			return nil, validate.Errorf("workload.kind", "%v", err)
		}
		interarrival, err := parseDistribution(s.Arrivals.Interarrival)
		if err != nil {
			return nil, validate.Errorf("arrivals.interarrival", "%v", err)
		}
		runtimeTail, err := parseDistribution(s.Arrivals.RuntimeTail)
		if err != nil {
			return nil, validate.Errorf("arrivals.runtime_tail", "%v", err)
		}
		arrivals, err := workload.GenerateArrivals(workload.ArrivalConfig{
			Workload: workload.Config{
				Kind: kind,
				M:    s.maxMachines(),
				N:    s.Workload.Jobs,
				Seed: s.workloadSeed(),
			},
			Rate:              s.Arrivals.Rate,
			BurstSize:         s.Arrivals.Burst,
			Interarrival:      interarrival,
			InterarrivalShape: s.Arrivals.InterarrivalShape,
			RuntimeTail:       runtimeTail,
			RuntimeTailShape:  s.Arrivals.RuntimeTailShape,
		})
		if err != nil {
			return nil, err
		}
		return cluster.JobsFromArrivals(arrivals), nil
	}
}

// buildFaults generates the deterministic fault plan of the scenario, or
// nil without an active faults section. The horizon, when unset, is
// estimated from the stream (faultPlan); ServeConfig passes nil jobs and
// therefore requires an explicit horizon.
func buildFaults(s Scenario, jobs []cluster.Job) (*faults.Plan, error) {
	if !s.Faults.active() {
		return nil, nil
	}
	cfg := faults.Config{
		Seed:            s.faultSeed(),
		Horizon:         s.Faults.Horizon,
		Clusters:        s.sizes(),
		MTBF:            s.Faults.MTBF,
		Shape:           s.Faults.Shape,
		RepairMean:      s.Faults.Repair,
		RepairSigma:     s.Faults.RepairSigma,
		CorrelatedMTBF:  s.Faults.CorrelatedMTBF,
		CorrelatedSize:  s.Faults.CorrelatedSize,
		ShardMTBF:       s.Faults.ShardMTBF,
		ShardRepairMean: s.Faults.ShardRepair,
	}
	if cfg.Horizon == 0 && jobs == nil {
		return nil, validate.Errorf("faults.horizon", "a service scenario needs an explicit fault horizon (no finite stream to estimate one from)")
	}
	plan, err := faultPlan(cfg, jobs)
	if err != nil {
		return nil, validate.Prefix("faults", err)
	}
	return plan, nil
}

// faultPlan generates the fault plan of a job stream. A zero cfg.Horizon
// is estimated with faults.SuggestHorizon from the stream's last release
// and total minimum work over the total processors of cfg.Clusters.
func faultPlan(cfg faults.Config, jobs []cluster.Job) (*faults.Plan, error) {
	if cfg.Horizon == 0 {
		maxRelease, work := 0.0, 0.0
		for i := range jobs {
			if jobs[i].Release > maxRelease {
				maxRelease = jobs[i].Release
			}
			w, _ := jobs[i].Task.MinWork()
			work += w
		}
		procs := 0
		for _, m := range cfg.Clusters {
			procs += m
		}
		cfg.Horizon = faults.SuggestHorizon(maxRelease, work, procs)
	}
	return faults.Generate(cfg)
}

// coreOptions builds the DEMT options of a shard's portfolio, hooking
// the phase timer of the registry in. The timings are observational
// only: they never feed back into scheduling, so the replay stays
// deterministic.
func coreOptions(s Scenario, reg *obs.Registry) *core.Options {
	o := &core.Options{Seed: s.Seed}
	if reg != nil {
		o.Timing = reg.PhaseTimer("bicrit_demt_phase_seconds",
			"Wall-clock time of DEMT internal phases per batch.", "phase")
	}
	return o
}

// gridConfig assembles the federation configuration of either topology.
func gridConfig(s Scenario, plan *faults.Plan, reg *obs.Registry) (grid.Config, error) {
	objective, err := s.objective()
	if err != nil {
		return grid.Config{}, err
	}
	routing, err := parseRoutingPolicy(s.Routing.Policy)
	if err != nil {
		return grid.Config{}, validate.Errorf("routing.policy", "%v", err)
	}
	specs := make([]grid.ClusterSpec, len(s.Clusters))
	for i, c := range s.Clusters {
		policy, err := s.batchPolicy(c.Machines)
		if err != nil {
			return grid.Config{}, err
		}
		perturb, err := s.perturb(i)
		if err != nil {
			return grid.Config{}, err
		}
		specs[i] = grid.ClusterSpec{
			M:            c.Machines,
			Portfolio:    cluster.DefaultPortfolio(coreOptions(s, reg)),
			Objective:    objective,
			Policy:       policy,
			Reservations: c.reservations(),
			Perturb:      perturb,
			Racing:       s.racing(),
		}
	}
	cfg := grid.Config{
		Clusters:     specs,
		Routing:      routing,
		AdmitBacklog: s.Routing.AdmitBacklog,
		Sequential:   s.Sequential,
		Metrics:      reg,
	}
	if plan != nil {
		cfg.Faults = plan
		replan, err := s.replanPolicy()
		if err != nil {
			return grid.Config{}, err
		}
		cfg.Replan = replan
		cfg.MaxRetries = s.Faults.MaxRetries
	}
	return cfg, nil
}

// ---------------------------------------------------------------------------
// Runners
// ---------------------------------------------------------------------------

// MergeObservers chains two observers: each callback of the result
// invokes a's then b's corresponding callback when set. Used to stack the
// log observer under a caller's own observer without either knowing about
// the other.
func MergeObservers(a, b Observer) Observer {
	return Observer{
		Batch: func(c int, br cluster.BatchReport) {
			if a.Batch != nil {
				a.Batch(c, br)
			}
			if b.Batch != nil {
				b.Batch(c, br)
			}
		},
		Decision: func(d grid.Decision) {
			if a.Decision != nil {
				a.Decision(d)
			}
			if b.Decision != nil {
				b.Decision(d)
			}
		},
	}
}

// LogObserver is the scenario runner's half of the structured-logging
// surface: one record per committed batch (the replan summary rides the
// batch record through Replanned), followed by one per job killed in it,
// and one per migration. With the discard logger this is free; the CLIs
// wire it behind -log-level.
func LogObserver(l *slog.Logger) Observer {
	return Observer{
		Batch: func(c int, br cluster.BatchReport) {
			l.Info("batch committed",
				"cluster", c,
				"batch", br.Index,
				"fire_time", br.FireTime,
				"jobs", len(br.Jobs),
				"winner", br.Winner,
				"planned_makespan", br.PlannedMakespan,
				"realized_makespan", br.RealizedMakespan,
				"killed", len(br.KillEvents))
			for _, k := range br.KillEvents {
				l.Warn("job killed",
					"cluster", c, "job", k.TaskID, "batch", k.Batch,
					"started", k.Start, "killed_at", k.Time)
			}
		},
		Decision: func(d grid.Decision) {
			if d.Migrated {
				l.Info("job migrated",
					"job", d.JobID, "to_cluster", d.Cluster, "t", d.Release)
			}
		},
	}
}

// recordFlight refills the recorder from a finished run: the stream's
// submissions, then every routing decision and committed batch of the
// report.
func recordFlight(rec *flight.Recorder, jobs []cluster.Job, rep *Report) {
	rec.Reset()
	for i := range jobs {
		rec.Submitted(jobs[i].Task.ID, jobs[i].Release)
	}
	for _, d := range rep.decisions() {
		rec.OnDecision(d)
	}
	for c, crep := range rep.clusters() {
		for _, br := range crep.Batches {
			rec.OnBatch(c, br)
		}
	}
}

// sloOutcomes builds the SLO engine's input from the replayed stream and
// the realized report: one outcome per submitted job, marked done (with
// its cluster and execution bounds) when the realized schedule ran it.
func sloOutcomes(jobs []cluster.Job, rep *Report) []slo.JobOutcome {
	type placed struct {
		cluster    int
		start, end float64
	}
	place := make(map[int]placed, len(jobs))
	for c, crep := range rep.clusters() {
		for _, a := range crep.Schedule.Assignments {
			place[a.TaskID] = placed{c, a.Start, a.End()}
		}
	}
	out := make([]slo.JobOutcome, 0, len(jobs))
	for i := range jobs {
		j := &jobs[i]
		pmin, _ := j.Task.MinTime()
		o := slo.JobOutcome{Job: j.Task.ID, Cluster: -1, Release: j.Release, Pmin: pmin}
		if p, ok := place[j.Task.ID]; ok {
			o.Cluster, o.Start, o.End, o.Done = p.cluster, p.start, p.end, true
		}
		out = append(out, o)
	}
	return out
}

// evaluateSLO attaches the SLO axis to the report and publishes it into
// the runner's registry when the scenario declares an SLO block.
func evaluateSLO(s Scenario, jobs []cluster.Job, rep *Report, reg *obs.Registry) {
	if s.SLO == nil {
		return
	}
	sum := slo.Evaluate(s.SLO.spec(), sloOutcomes(jobs, rep))
	sum.Publish(reg)
	rep.SLO = sum
}

// runner replays a compiled scenario through the grid federation. A
// single-topology scenario is a one-shard grid: its report carries the
// shard's cluster report alone, and it streams no routing decisions.
type runner struct {
	scn    Scenario
	cfg    grid.Config
	jobs   []cluster.Job
	plan   *faults.Plan
	reg    *obs.Registry
	watch  Observer
	flight *flight.Recorder
}

func (r *runner) Observe(o Observer) { r.watch = o }

func (r *runner) Flight(rec *flight.Recorder) { r.flight = rec }

func (r *runner) Jobs() []cluster.Job { return r.jobs }

func (r *runner) Info() Info {
	shard := r.cfg.Clusters[0]
	info := Info{
		Topology:    r.scn.Topology,
		Sizes:       r.scn.sizes(),
		Jobs:        len(r.jobs),
		BatchPolicy: shard.Policy.Name(),
		Objective:   shard.Objective.Kind.String(),
		Routing:     r.cfg.Routing.Name(),
		Plan:        r.plan,
		Replan:      r.cfg.Replan.Kind.String(),
	}
	if r.scn.Topology == TopologySingle {
		info.Reservations = len(shard.Reservations)
		info.Outages = len(r.plan.ClusterWindows(0, shard.M))
	}
	return info
}

func (r *runner) Run(ctx context.Context) (*Report, error) {
	cfg, single := r.cfg, r.scn.Topology == TopologySingle
	if !single {
		cfg.OnDecision = r.watch.Decision
	}
	if batch := r.watch.Batch; batch != nil {
		// Shards report concurrently; serialize the observer.
		var mu sync.Mutex
		cfg.OnBatch = func(shard int, br cluster.BatchReport) {
			mu.Lock()
			defer mu.Unlock()
			batch(shard, br)
		}
	}
	fed, err := grid.New(cfg)
	if err != nil {
		return nil, err
	}
	rep, err := fed.RunContext(ctx, r.jobs)
	if err != nil {
		return nil, err
	}
	if err := checkReservations(cfg.Clusters, rep); err != nil {
		return nil, err
	}
	report := &Report{Topology: r.scn.Topology, Jobs: len(r.jobs), Grid: rep}
	if single {
		report.Cluster, report.Grid = rep.Clusters[0], nil
	}
	evaluateSLO(r.scn, r.jobs, report, r.reg)
	if r.flight != nil {
		recordFlight(r.flight, r.jobs, report)
	}
	return report, nil
}

// checkReservations cross-checks every shard's realized trace against its
// reservations after a replay: a safety net under the engines' placement.
func checkReservations(specs []grid.ClusterSpec, rep *grid.Report) error {
	for c, spec := range specs {
		if len(spec.Reservations) == 0 {
			continue
		}
		crep := rep.Clusters[c]
		if err := reservation.ValidateAgainstReservations(crep.Schedule, spec.Reservations, crep.Blocked); err != nil {
			return fmt.Errorf("cluster %d: realized trace violates a reservation: %w", c, err)
		}
	}
	return nil
}
