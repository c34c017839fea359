// Package scenario is the composable front door of the library: one
// versioned, declarative Scenario spec that describes a complete
// experiment — workload and arrival process, topology (a single cluster
// or a sharded grid), batching and routing policies, objectives, fault
// injection, replanning and service pacing — and compiles to whichever
// engine the topology needs.
//
// The spec is a plain value with a stable JSON form (Write/Read/Save/
// LoadScenario, version-checked and unknown-field-rejecting), buildable
// either as a struct literal or through functional options (New with
// WithClusters, WithWorkload, ...). Validation is eager and field-
// anchored: every failure is a *ValidationError naming the offending path
// ("clusters[2].machines", "arrivals.rate"), raised at Compile time —
// before any goroutine spawns.
//
// Compile turns a Scenario into a Runner: Run(ctx) replays the stream
// through the right engine (cancellation threads into the batch loops),
// an Observer streams batch and routing events as they happen, and the
// unified Report is a superset of the cluster and grid reports.
//
// The finished Report is the run's one event log. Every output is a
// renderer over it: the text report and the grid's JSON and CSV exports
// (render.go), the event trace in JSONL or Chrome format (trace.go), and
// the flight recorder a Runner fills after each run. cmd/bicrit consumes
// scenario files directly; its goldens pin the report bytes and
// testdata/trace.*.golden pins the trace bytes.
package scenario

import (
	"fmt"
	"math"

	"bicriteria/internal/slo"
	"bicriteria/internal/validate"
)

// Version is the current scenario file-format version.
const Version = 1

// FaultSeedSalt derives the fault-plan sub-seed from a scenario's main
// seed: when Faults.Seed is zero, the plan is generated with
// Seed ^ FaultSeedSalt, decorrelating the failure streams from the task
// stream the same way workload's arrival salt decorrelates the arrival
// instants. A scenario that wants the raw seed for its fault plan sets
// Faults.Seed to it explicitly; cmd/bicrit's faulted goldens do.
const FaultSeedSalt int64 = 0x5851F42D4C957F2D

// RaceSeedSalt derives the racing-bandit sub-seed the same way: when
// Racing.Seed is zero, the bandit's exploration draws are keyed by
// Seed ^ RaceSeedSalt, decorrelating launch-order exploration from the
// task, arrival and fault streams.
const RaceSeedSalt int64 = 0x6C62272E07BB0142

// Topology selects the engine a scenario compiles to.
type Topology string

const (
	// TopologySingle replays the stream through a one-shard grid
	// (exactly one entry in Clusters).
	TopologySingle Topology = "single"
	// TopologyGrid routes the stream across the clusters through the
	// sharded grid federation.
	TopologyGrid Topology = "grid"
)

// ValidationError is the unified configuration error of the library: it
// names the exact field path that is wrong. cluster.New, grid.New and
// serve.NewServer raise it too, so a bad config fails eagerly with the
// same shape at every layer.
type ValidationError = validate.Error

// Cluster describes one machine of the scenario: a processor count and
// optional reservations.
type Cluster struct {
	// Machines is the processor count. Required, at least 1.
	Machines int `json:"machines"`
	// Reservations blocks processors during absolute time windows.
	Reservations []Reservation `json:"reservations,omitempty"`
}

// Reservation blocks Procs processors during [Start, End).
type Reservation struct {
	Procs int     `json:"procs"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// Workload selects the task-generation family.
type Workload struct {
	// Kind is the workload family: "weakly-parallel", "highly-parallel",
	// "mixed" or "cirne". Empty means "mixed".
	Kind string `json:"kind,omitempty"`
	// Jobs is the number of generated jobs. Required when the arrival
	// section generates (no File/Trace replay).
	Jobs int `json:"jobs,omitempty"`
	// Seed overrides the scenario seed for the task stream; zero uses
	// Scenario.Seed.
	Seed int64 `json:"seed,omitempty"`
}

// Arrivals describes the submission process: either a generated renewal
// stream or a replayed file.
type Arrivals struct {
	// Rate is the mean number of jobs per time unit of the generated
	// stream. Required (positive) when generating.
	Rate float64 `json:"rate,omitempty"`
	// Burst groups submissions: values above 1 make jobs arrive in bursts
	// sharing one instant. Zero or one keeps independent arrivals.
	Burst int `json:"burst,omitempty"`
	// Interarrival selects the inter-burst gap law: "exponential"
	// (default), "lognormal" or "weibull".
	Interarrival string `json:"interarrival,omitempty"`
	// InterarrivalShape tunes the heavy-tailed gap laws (lognormal sigma
	// or Weibull shape); zero picks the defaults.
	InterarrivalShape float64 `json:"interarrival_shape,omitempty"`
	// RuntimeTail scales realized runtimes by a heavy-tailed mean-1
	// factor: "" or "default" (none), "lognormal" or "weibull".
	RuntimeTail string `json:"runtime_tail,omitempty"`
	// RuntimeTailShape tunes the runtime law like InterarrivalShape.
	RuntimeTailShape float64 `json:"runtime_tail_shape,omitempty"`
	// File replays a saved arrival stream (workload.SaveArrivals JSON)
	// instead of generating one. Mutually exclusive with Trace.
	File string `json:"file,omitempty"`
	// Trace replays an SWF trace fragment, reconstructing moldable tasks
	// with the Downey model. Mutually exclusive with File.
	Trace string `json:"trace,omitempty"`
}

// generated reports whether the arrival stream is generated (as opposed
// to replayed from File or Trace).
func (a Arrivals) generated() bool { return a.File == "" && a.Trace == "" }

// Batch selects the per-cluster batching policy.
type Batch struct {
	// Policy is "idle" (default), "interval" or "adaptive".
	Policy string `json:"policy,omitempty"`
	// Interval is the period of the interval policy; zero means 25.
	Interval float64 `json:"interval,omitempty"`
	// WorkFactor scales the adaptive policy's work target: a batch fires
	// once the backlog carries WorkFactor * machines units of minimum
	// work. Zero means 4.
	WorkFactor float64 `json:"work_factor,omitempty"`
	// MaxDelay bounds the adaptive policy's oldest-job wait; zero means 50.
	MaxDelay float64 `json:"max_delay,omitempty"`
}

// Objective selects the per-batch commit criterion.
type Objective struct {
	// Kind is "makespan" (default), "minsum" or "combined".
	Kind string `json:"kind,omitempty"`
	// Alpha is the makespan weight of the combined objective, in [0, 1];
	// zero means 0.5.
	Alpha float64 `json:"alpha,omitempty"`
}

// Routing configures the grid meta-scheduler (grid topology only).
type Routing struct {
	// Policy is "round-robin", "least-backlog" (default), "lower-bound"
	// or "moldability".
	Policy string `json:"policy,omitempty"`
	// AdmitBacklog closes a shard to new admissions above this estimated
	// per-processor backlog; zero disables admission control.
	AdmitBacklog float64 `json:"admit_backlog,omitempty"`
}

// Faults configures deterministic fault injection and the replanning of
// killed jobs. A nil section injects nothing.
type Faults struct {
	// Seed keys the fault plan; zero derives Scenario.Seed ^ FaultSeedSalt.
	Seed int64 `json:"seed,omitempty"`
	// MTBF is the per-node mean time between failures; zero disables
	// independent node crashes.
	MTBF float64 `json:"mtbf,omitempty"`
	// Shape is the Weibull shape of the failure law; zero means default.
	Shape float64 `json:"shape,omitempty"`
	// Repair is the mean node repair duration; zero means MTBF/10.
	Repair float64 `json:"repair,omitempty"`
	// RepairSigma is the lognormal sigma of the repair law; zero default.
	RepairSigma float64 `json:"repair_sigma,omitempty"`
	// CorrelatedMTBF adds per-cluster correlated group failures.
	CorrelatedMTBF float64 `json:"correlated_mtbf,omitempty"`
	// CorrelatedSize is the width of a correlated group; zero means a
	// quarter of the cluster.
	CorrelatedSize int `json:"correlated_size,omitempty"`
	// ShardMTBF adds whole-shard outages (grid topology).
	ShardMTBF float64 `json:"shard_mtbf,omitempty"`
	// ShardRepair is the mean shard outage duration; zero ShardMTBF/10.
	ShardRepair float64 `json:"shard_repair,omitempty"`
	// Horizon bounds generated failures; zero estimates it from the
	// stream (faults.SuggestHorizon).
	Horizon float64 `json:"horizon,omitempty"`
	// Replan is "restart" (default) or "checkpoint".
	Replan string `json:"replan,omitempty"`
	// CheckpointCredit is the fraction of finished work a checkpoint
	// restart keeps, in [0, 1]; zero means full credit.
	CheckpointCredit float64 `json:"checkpoint_credit,omitempty"`
	// MaxRetries caps per-job kills before the job is lost; zero default.
	MaxRetries int `json:"max_retries,omitempty"`
}

// active reports whether the section generates any fault events.
func (f *Faults) active() bool {
	return f != nil && (f.MTBF > 0 || f.CorrelatedMTBF > 0 || f.ShardMTBF > 0)
}

// Service configures the live-service pacing of a scenario (the serve
// layer). A nil section uses the serve defaults everywhere.
type Service struct {
	// Speedup is the number of virtual time units per wall-clock second;
	// zero means 1 (real time).
	Speedup float64 `json:"speedup,omitempty"`
	// SubmitRate is the token-bucket rate limit in jobs per second; zero
	// disables rate limiting. SubmitBurst is the bucket capacity.
	SubmitRate  float64 `json:"submit_rate,omitempty"`
	SubmitBurst int     `json:"submit_burst,omitempty"`
	// AdmitBacklog rejects submissions (429) above this service-wide
	// virtual per-processor backlog; zero disables the check.
	AdmitBacklog float64 `json:"admit_backlog,omitempty"`
	// QueueShards and QueueDepth shaped a submission queue the service
	// no longer has; negative values are still rejected.
	//
	// Deprecated: accepted and ignored.
	QueueShards int `json:"queue_shards,omitempty"`
	// Deprecated: accepted and ignored.
	QueueDepth int `json:"queue_depth,omitempty"`
	// RefreshSeconds is the live-state refresh period in wall seconds;
	// zero means the serve default (1s).
	RefreshSeconds float64 `json:"refresh_seconds,omitempty"`
	// SnapshotPath enables periodic snapshots with restore-on-start;
	// SnapshotSeconds is the period (zero means the 10s default).
	SnapshotPath    string  `json:"snapshot_path,omitempty"`
	SnapshotSeconds float64 `json:"snapshot_seconds,omitempty"`
}

// TraceSpec activates the structured event trace of a run: when the run
// completes, every batch, routing decision, kill, migration and the final
// drain summary is rendered from the report (WriteTrace) to Path, stamped
// with simulated time. Traces of a seeded scenario are byte-identical
// across replays, concurrent or sequential.
type TraceSpec struct {
	// Path is the output file. Required when the section is present.
	Path string `json:"path"`
	// Format is "chrome" (default: Chrome trace-event JSON, one track per
	// cluster, viewable in perfetto or chrome://tracing) or "jsonl" (one
	// structured event per line).
	Format string `json:"format,omitempty"`
}

// SLOVersion is the current version of the SLO block.
const SLOVersion = 1

// SLOSpec declares the per-job service-level objectives of a scenario:
// a deadline per job (release + deadline_factor · the job's own lower
// bound pmin), an overall miss budget with an optional burn-rate window,
// and tail targets on stretch and wait. The block is versioned
// independently of the scenario so SLO rules can evolve without a spec
// bump. A nil section evaluates nothing.
type SLOSpec struct {
	// Version is the SLO block version, currently 1; zero is normalized.
	Version int `json:"version,omitempty"`
	// DeadlineFactor sets every job's deadline to release + factor·pmin;
	// zero means slo.DefaultDeadlineFactor.
	DeadlineFactor float64 `json:"deadline_factor,omitempty"`
	// MissBudget is the tolerated deadline-miss rate in [0, 1); the
	// deadline alert fires above it.
	MissBudget float64 `json:"miss_budget,omitempty"`
	// BurnWindow, when positive, additionally watches the trailing
	// window (in simulated time units) of completions; BurnFactor scales
	// the burn alert's threshold (zero means slo.DefaultBurnFactor).
	BurnWindow float64 `json:"burn_window,omitempty"`
	BurnFactor float64 `json:"burn_factor,omitempty"`
	// StretchPercentile/StretchTarget alert when the given percentile of
	// job stretch exceeds the target; a zero target disables the rule.
	StretchPercentile float64 `json:"stretch_percentile,omitempty"`
	StretchTarget     float64 `json:"stretch_target,omitempty"`
	// WaitPercentile/WaitTarget alert on the wait-time tail the same way.
	WaitPercentile float64 `json:"wait_percentile,omitempty"`
	WaitTarget     float64 `json:"wait_target,omitempty"`
}

// spec converts the block to the SLO engine's resolved rule set.
func (s *SLOSpec) spec() slo.Spec {
	return slo.Spec{
		DeadlineFactor:    s.DeadlineFactor,
		MissBudget:        s.MissBudget,
		BurnWindow:        s.BurnWindow,
		BurnFactor:        s.BurnFactor,
		StretchPercentile: s.StretchPercentile,
		StretchTarget:     s.StretchTarget,
		WaitPercentile:    s.WaitPercentile,
		WaitTarget:        s.WaitTarget,
	}
}

func (s *SLOSpec) validate() error {
	if s == nil {
		return nil
	}
	if s.Version != 0 && s.Version != SLOVersion {
		return validate.Errorf("slo.version", "unsupported SLO block version %d (want %d)", s.Version, SLOVersion)
	}
	if err := s.spec().Validate(); err != nil {
		return validate.Prefix("slo", err)
	}
	return nil
}

// RacingSpec configures portfolio racing: the engine runs the portfolio
// members in launch order and stops as soon as one candidate's score is
// provably within Cutoff of the batch lower bound. Racing only affects
// wall-clock and which members get cut off — the committed schedules are byte-identical between
// concurrent and sequential replays, and identical to a non-racing run
// when the cutoff is 1 (disabled). A nil section disables racing.
type RacingSpec struct {
	// Cutoff is the early-cutoff factor relative to the batch lower
	// bound; 0 or 1 disables racing, values in (0, 1) are rejected.
	Cutoff float64 `json:"cutoff"`
	// Bandit biases the launch order toward recent winners with a seeded
	// deterministic selector.
	Bandit bool `json:"bandit,omitempty"`
	// Seed keys the bandit's exploration draws; zero derives
	// Scenario.Seed ^ RaceSeedSalt.
	Seed int64 `json:"seed,omitempty"`
}

func (r *RacingSpec) validate() error {
	if r == nil {
		return nil
	}
	if math.IsNaN(r.Cutoff) || math.IsInf(r.Cutoff, 0) || r.Cutoff < 0 {
		return validate.Errorf("racing.cutoff", "cutoff must be a finite non-negative factor, got %g", r.Cutoff)
	}
	if r.Cutoff > 0 && r.Cutoff < 1 {
		return validate.Errorf("racing.cutoff", "cutoff %g lies below 1; no candidate can score under the lower bound", r.Cutoff)
	}
	return nil
}

// Scenario is the complete declarative spec of one experiment: the single
// input every layer of the stack — offline cluster replay, grid
// federation, live service — compiles from.
type Scenario struct {
	// Version is the spec version, currently 1. Zero is normalized to the
	// current version; anything else is rejected.
	Version int `json:"version"`
	// Name labels the scenario (reports, file headers). Optional.
	Name string `json:"name,omitempty"`
	// Seed is the master seed: it drives the task stream, the DEMT
	// shuffles and the runtime noise, and deterministically derives the
	// arrival and runtime-tail (Seed ^ internal/workload's salts) and
	// fault (Seed ^ FaultSeedSalt) sub-seeds.
	Seed int64 `json:"seed"`
	// Topology selects the engine; empty infers "single" for one cluster
	// and "grid" otherwise.
	Topology Topology `json:"topology"`
	// Clusters lists the machines. Single topology needs exactly one.
	Clusters []Cluster `json:"clusters"`
	// Workload and Arrivals describe the job stream.
	Workload Workload `json:"workload"`
	Arrivals Arrivals `json:"arrivals"`
	// Batch, Objective and Routing select the scheduling policies.
	Batch     Batch     `json:"batch,omitzero"`
	Objective Objective `json:"objective,omitzero"`
	Routing   Routing   `json:"routing,omitzero"`
	// Noise perturbs realized runtimes by a uniform factor in
	// [1-Noise, 1+Noise], seeded per cluster; zero means exact execution.
	Noise float64 `json:"noise,omitempty"`
	// Sequential disables all goroutines (the determinism switch).
	Sequential bool `json:"sequential,omitempty"`
	// Racing, when present, enables the portfolio early cutoff on every
	// cluster.
	Racing *RacingSpec `json:"racing,omitempty"`
	// Faults and Service are optional sections.
	Faults  *Faults  `json:"faults,omitempty"`
	Service *Service `json:"service,omitempty"`
	// Trace, when present, renders the run's event stream to a file.
	Trace *TraceSpec `json:"trace,omitempty"`
	// SLO, when present, evaluates per-job deadlines and tail targets
	// after every run and attaches the summary (and its alerts) to the
	// report.
	SLO *SLOSpec `json:"slo,omitempty"`
}

// Option mutates a scenario under construction; see New.
type Option func(*Scenario)

// New builds a scenario from functional options, applies the defaults
// (version, inferred topology) and validates eagerly: the returned error,
// if any, is a *ValidationError naming the offending field path.
func New(opts ...Option) (Scenario, error) {
	var s Scenario
	s.Version = Version
	s.Seed = 1
	for _, opt := range opts {
		opt(&s)
	}
	s = s.Normalized()
	if err := s.validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// WithName labels the scenario.
func WithName(name string) Option { return func(s *Scenario) { s.Name = name } }

// WithSeed sets the master seed.
func WithSeed(seed int64) Option { return func(s *Scenario) { s.Seed = seed } }

// WithTopology forces the topology (normally inferred from the cluster
// count: one cluster is "single", several are "grid"; a one-cluster grid
// must be forced explicitly).
func WithTopology(t Topology) Option { return func(s *Scenario) { s.Topology = t } }

// WithClusters declares one cluster per processor count. Reservations
// already attached to a cluster index (options apply in order, and
// WithReservation may run first) are kept; clusters beyond the new count
// are dropped.
func WithClusters(machines ...int) Option {
	return func(s *Scenario) {
		clusters := make([]Cluster, len(machines))
		for i, m := range machines {
			if i < len(s.Clusters) {
				clusters[i] = s.Clusters[i]
			}
			clusters[i].Machines = m
		}
		s.Clusters = clusters
	}
}

// WithReservation blocks procs processors of cluster index during
// [start, end). The option is order-independent with WithClusters: a
// reservation on a not-yet-declared index grows the cluster list with
// zero-machine placeholders, which a later WithClusters fills in — and
// which validation rejects ("clusters[i].machines") if nothing ever
// does, so a misaddressed reservation fails eagerly instead of being
// dropped. A negative index panics, like any out-of-range slice index.
func WithReservation(cluster, procs int, start, end float64) Option {
	return func(s *Scenario) {
		if cluster < 0 {
			panic(fmt.Sprintf("scenario: negative cluster index %d in WithReservation", cluster))
		}
		for len(s.Clusters) <= cluster {
			s.Clusters = append(s.Clusters, Cluster{})
		}
		s.Clusters[cluster].Reservations = append(s.Clusters[cluster].Reservations,
			Reservation{Procs: procs, Start: start, End: end})
	}
}

// WithWorkload selects the task family and job count.
func WithWorkload(kind string, jobs int) Option {
	return func(s *Scenario) { s.Workload.Kind, s.Workload.Jobs = kind, jobs }
}

// WithArrivals sets the generated stream's rate and burst size.
func WithArrivals(rate float64, burst int) Option {
	return func(s *Scenario) { s.Arrivals.Rate, s.Arrivals.Burst = rate, burst }
}

// WithArrivalFile replays a saved arrival stream instead of generating.
func WithArrivalFile(path string) Option { return func(s *Scenario) { s.Arrivals.File = path } }

// WithBatchPolicy selects the batching policy and its knobs (pass zeros
// for the defaults).
func WithBatchPolicy(policy string, interval, workFactor, maxDelay float64) Option {
	return func(s *Scenario) {
		s.Batch = Batch{Policy: policy, Interval: interval, WorkFactor: workFactor, MaxDelay: maxDelay}
	}
}

// WithObjective selects the commit objective.
func WithObjective(kind string, alpha float64) Option {
	return func(s *Scenario) { s.Objective = Objective{Kind: kind, Alpha: alpha} }
}

// WithRouting selects the grid routing policy and admission limit.
func WithRouting(policy string, admitBacklog float64) Option {
	return func(s *Scenario) { s.Routing.Policy, s.Routing.AdmitBacklog = policy, admitBacklog }
}

// WithNoise perturbs realized runtimes by a uniform fraction.
func WithNoise(frac float64) Option { return func(s *Scenario) { s.Noise = frac } }

// WithSequential disables all goroutines.
func WithSequential(sequential bool) Option { return func(s *Scenario) { s.Sequential = sequential } }

// WithRacing attaches a portfolio-racing section.
func WithRacing(r RacingSpec) Option { return func(s *Scenario) { s.Racing = &r } }

// WithFaults attaches a fault-injection section.
func WithFaults(f Faults) Option { return func(s *Scenario) { s.Faults = &f } }

// WithService attaches a service-pacing section.
func WithService(svc Service) Option { return func(s *Scenario) { s.Service = &svc } }

// Normalized returns a copy with the resolvable defaults filled in: the
// current version for a zero version and the inferred topology for an
// empty one. Deeper zero-means-default fields (batch knobs, objective
// alpha, sub-seeds) are resolved at Compile time so the JSON stays
// minimal.
func (s Scenario) Normalized() Scenario {
	if s.Version == 0 {
		s.Version = Version
	}
	if s.Topology == "" {
		if len(s.Clusters) == 1 {
			s.Topology = TopologySingle
		} else {
			s.Topology = TopologyGrid
		}
	}
	return s
}

// sizes returns the processor counts of the clusters in order.
func (s Scenario) sizes() []int {
	sizes := make([]int, len(s.Clusters))
	for i, c := range s.Clusters {
		sizes[i] = c.Machines
	}
	return sizes
}

// maxMachines returns the largest cluster size: the machine size the
// workload generator targets, so wide jobs can exploit the biggest shard.
func (s Scenario) maxMachines() int {
	max := 0
	for _, c := range s.Clusters {
		if c.Machines > max {
			max = c.Machines
		}
	}
	return max
}

// finiteNonNegative rejects NaN, infinities and negatives.
func finiteNonNegative(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}

// validate checks the whole spec eagerly; every failure is a
// *ValidationError naming the offending field path.
func (s Scenario) validate() error {
	if s.Version != Version {
		return validate.Errorf("version", "unsupported scenario version %d (want %d)", s.Version, Version)
	}
	switch s.Topology {
	case TopologySingle:
		if len(s.Clusters) != 1 {
			return validate.Errorf("topology", "single topology needs exactly one cluster, got %d", len(s.Clusters))
		}
	case TopologyGrid:
		if len(s.Clusters) == 0 {
			return validate.Errorf("clusters", "grid topology needs at least one cluster")
		}
	default:
		return validate.Errorf("topology", "unknown topology %q (want %q or %q)", s.Topology, TopologySingle, TopologyGrid)
	}
	for i, c := range s.Clusters {
		if c.Machines < 1 {
			return validate.Errorf(validate.Index("clusters", i)+".machines", "cluster needs at least one processor, got %d", c.Machines)
		}
		for j, r := range c.Reservations {
			field := validate.Index(validate.Index("clusters", i)+".reservations", j)
			if r.Procs < 1 {
				return validate.Errorf(field+".procs", "reservation needs at least one processor, got %d", r.Procs)
			}
			if !finiteNonNegative(r.Start) || math.IsNaN(r.End) || math.IsInf(r.End, 0) || r.End <= r.Start {
				return validate.Errorf(field, "reservation window [%g, %g) is invalid", r.Start, r.End)
			}
		}
	}
	if err := s.validateStream(); err != nil {
		return err
	}
	if err := s.validatePolicies(); err != nil {
		return err
	}
	if err := s.Racing.validate(); err != nil {
		return err
	}
	if err := s.Faults.validate(); err != nil {
		return err
	}
	if err := s.Trace.validate(); err != nil {
		return err
	}
	if err := s.SLO.validate(); err != nil {
		return err
	}
	return s.Service.validate()
}

func (t *TraceSpec) validate() error {
	if t == nil {
		return nil
	}
	if t.Path == "" {
		return validate.Errorf("trace.path", "a trace section needs an output path")
	}
	switch t.Format {
	case "", traceChrome, traceJSONL:
	default:
		return validate.Errorf("trace.format", "unknown trace format %q (want chrome or jsonl)", t.Format)
	}
	return nil
}

func (s Scenario) validateStream() error {
	if s.Arrivals.File != "" && s.Arrivals.Trace != "" {
		return validate.Errorf("arrivals", "file and trace are mutually exclusive")
	}
	if _, err := parseWorkloadKind(s.Workload.Kind); err != nil {
		return validate.Errorf("workload.kind", "%v", err)
	}
	if s.Arrivals.generated() {
		if s.Workload.Jobs < 1 {
			return validate.Errorf("workload.jobs", "a generated stream needs at least one job, got %d", s.Workload.Jobs)
		}
		if !(s.Arrivals.Rate > 0) || math.IsInf(s.Arrivals.Rate, 0) {
			return validate.Errorf("arrivals.rate", "arrival rate must be positive and finite, got %g", s.Arrivals.Rate)
		}
	}
	if s.Arrivals.Burst < 0 {
		return validate.Errorf("arrivals.burst", "negative burst size %d", s.Arrivals.Burst)
	}
	for _, d := range []struct {
		law   string
		shape float64
		field string
	}{
		{s.Arrivals.Interarrival, s.Arrivals.InterarrivalShape, "arrivals.interarrival"},
		{s.Arrivals.RuntimeTail, s.Arrivals.RuntimeTailShape, "arrivals.runtime_tail"},
	} {
		if _, err := parseDistribution(d.law); err != nil {
			return validate.Errorf(d.field, "%v", err)
		}
		if !finiteNonNegative(d.shape) {
			return validate.Errorf(d.field+"_shape", "shape must be non-negative and finite, got %g", d.shape)
		}
	}
	return nil
}

func (s Scenario) validatePolicies() error {
	switch s.Batch.Policy {
	case "", "idle", "interval", "adaptive":
	default:
		return validate.Errorf("batch.policy", "unknown batching policy %q (want idle, interval or adaptive)", s.Batch.Policy)
	}
	if s.Batch.Interval < 0 || math.IsNaN(s.Batch.Interval) || math.IsInf(s.Batch.Interval, 0) {
		return validate.Errorf("batch.interval", "interval must be positive and finite, got %g", s.Batch.Interval)
	}
	if s.Batch.WorkFactor < 0 || math.IsNaN(s.Batch.WorkFactor) || math.IsInf(s.Batch.WorkFactor, 0) {
		return validate.Errorf("batch.work_factor", "work factor must be positive and finite, got %g", s.Batch.WorkFactor)
	}
	if s.Batch.MaxDelay < 0 || math.IsNaN(s.Batch.MaxDelay) {
		return validate.Errorf("batch.max_delay", "invalid max delay %g", s.Batch.MaxDelay)
	}
	switch s.Objective.Kind {
	case "", "makespan", "minsum", "combined":
	default:
		return validate.Errorf("objective.kind", "unknown objective %q (want makespan, minsum or combined)", s.Objective.Kind)
	}
	if s.Objective.Alpha < 0 || s.Objective.Alpha > 1 || math.IsNaN(s.Objective.Alpha) {
		return validate.Errorf("objective.alpha", "alpha must lie in [0, 1], got %g", s.Objective.Alpha)
	}
	if s.Topology == TopologyGrid || s.Routing.Policy != "" {
		if _, err := parseRoutingPolicy(s.Routing.Policy); err != nil {
			return validate.Errorf("routing.policy", "%v", err)
		}
	}
	if !finiteNonNegative(s.Routing.AdmitBacklog) {
		return validate.Errorf("routing.admit_backlog", "admission backlog limit must be non-negative and finite, got %g", s.Routing.AdmitBacklog)
	}
	if math.IsNaN(s.Noise) || s.Noise < 0 || s.Noise >= 1 {
		return validate.Errorf("noise", "noise fraction must lie in [0, 1), got %g", s.Noise)
	}
	return nil
}

func (f *Faults) validate() error {
	if f == nil {
		return nil
	}
	for _, v := range []struct {
		v     float64
		field string
	}{
		{f.MTBF, "faults.mtbf"},
		{f.Shape, "faults.shape"},
		{f.Repair, "faults.repair"},
		{f.RepairSigma, "faults.repair_sigma"},
		{f.CorrelatedMTBF, "faults.correlated_mtbf"},
		{f.ShardMTBF, "faults.shard_mtbf"},
		{f.ShardRepair, "faults.shard_repair"},
		{f.Horizon, "faults.horizon"},
	} {
		if !finiteNonNegative(v.v) {
			return validate.Errorf(v.field, "must be non-negative and finite, got %g", v.v)
		}
	}
	if f.CorrelatedSize < 0 {
		return validate.Errorf("faults.correlated_size", "negative correlated group size %d", f.CorrelatedSize)
	}
	if f.MaxRetries < 0 {
		return validate.Errorf("faults.max_retries", "negative max retries %d", f.MaxRetries)
	}
	switch f.Replan {
	case "", "restart", "checkpoint":
	default:
		return validate.Errorf("faults.replan", "unknown replan policy %q (want restart or checkpoint)", f.Replan)
	}
	if f.CheckpointCredit < 0 || f.CheckpointCredit > 1 || math.IsNaN(f.CheckpointCredit) {
		return validate.Errorf("faults.checkpoint_credit", "checkpoint credit must lie in [0, 1], got %g", f.CheckpointCredit)
	}
	return nil
}

func (svc *Service) validate() error {
	if svc == nil {
		return nil
	}
	for _, v := range []struct {
		v     float64
		field string
	}{
		{svc.Speedup, "service.speedup"},
		{svc.SubmitRate, "service.submit_rate"},
		{svc.AdmitBacklog, "service.admit_backlog"},
		{svc.RefreshSeconds, "service.refresh_seconds"},
		{svc.SnapshotSeconds, "service.snapshot_seconds"},
	} {
		if !finiteNonNegative(v.v) {
			return validate.Errorf(v.field, "must be non-negative and finite, got %g", v.v)
		}
	}
	for _, v := range []struct {
		v     int
		field string
	}{
		{svc.SubmitBurst, "service.submit_burst"},
		{svc.QueueShards, "service.queue_shards"},
		{svc.QueueDepth, "service.queue_depth"},
	} {
		if v.v < 0 {
			return validate.Errorf(v.field, "must be non-negative, got %d", v.v)
		}
	}
	return nil
}
