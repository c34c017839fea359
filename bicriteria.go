package bicriteria

import (
	"context"
	"io"
	"log/slog"
	"net/http"

	"bicriteria/internal/baselines"
	"bicriteria/internal/buildinfo"
	"bicriteria/internal/cluster"
	"bicriteria/internal/core"
	"bicriteria/internal/experiment"
	"bicriteria/internal/faults"
	"bicriteria/internal/flight"
	"bicriteria/internal/grid"
	"bicriteria/internal/logx"
	"bicriteria/internal/lowerbound"
	"bicriteria/internal/moldable"
	"bicriteria/internal/reservation"
	"bicriteria/internal/scenario"
	"bicriteria/internal/schedule"
	"bicriteria/internal/serve"
	"bicriteria/internal/sim"
	"bicriteria/internal/trace"
	"bicriteria/internal/workload"
)

// Version is the library's semantic version, also reported by
// `bicrit -version` and the service's GET /version endpoint.
const Version = buildinfo.Version

// ---------------------------------------------------------------------------
// Scenario API v2: one composable spec that drives every layer
// ---------------------------------------------------------------------------

// Scenario is the versioned declarative spec of one experiment: workload
// and arrival process, topology (single cluster or sharded grid), batch
// and routing policies, objectives, fault injection, replanning and
// service pacing — one value that compiles to the grid federation (a
// single cluster is a one-shard grid). Build it as a literal, through
// NewScenario's functional options, or load it from JSON (LoadScenario).
// See internal/scenario.
type Scenario = scenario.Scenario

// ScenarioOption mutates a scenario under construction; see NewScenario
// and the ScenarioWith* constructors below.
type ScenarioOption = scenario.Option

// ScenarioTopology selects the engine a scenario compiles to.
type ScenarioTopology = scenario.Topology

// Scenario topologies.
const (
	TopologySingle = scenario.TopologySingle
	TopologyGrid   = scenario.TopologyGrid
)

// Spec sections of a Scenario.
type (
	ScenarioCluster     = scenario.Cluster
	ScenarioReservation = scenario.Reservation
	ScenarioWorkload    = scenario.Workload
	ScenarioArrivals    = scenario.Arrivals
	ScenarioBatch       = scenario.Batch
	ScenarioObjective   = scenario.Objective
	ScenarioRouting     = scenario.Routing
	ScenarioFaults      = scenario.Faults
	ScenarioService     = scenario.Service
	ScenarioSLO         = scenario.SLOSpec
	ScenarioRacing      = scenario.RacingSpec
)

// ValidationError is the unified configuration error of the library: it
// names the exact field path that is wrong ("clusters[2].machines",
// "arrivals.rate"). Compile, NewServeServer, RunClusterContext and
// RunGridContext raise it eagerly, so bad configs fail before any
// goroutine spawns, with the same error shape at every layer.
type ValidationError = scenario.ValidationError

// Option constructors for NewScenario, re-exported from internal/scenario;
// any other section is set on the Scenario literal.
var (
	ScenarioWithName        = scenario.WithName
	ScenarioWithSeed        = scenario.WithSeed
	ScenarioWithClusters    = scenario.WithClusters
	ScenarioWithWorkload    = scenario.WithWorkload
	ScenarioWithArrivals    = scenario.WithArrivals
	ScenarioWithBatchPolicy = scenario.WithBatchPolicy
	ScenarioWithRouting     = scenario.WithRouting
	ScenarioWithNoise       = scenario.WithNoise
	ScenarioWithFaults      = scenario.WithFaults
)

// ScenarioTrace is the optional trace section of a scenario: where and
// in which format the run's event trace is written.
type ScenarioTrace = scenario.TraceSpec

// NewScenario builds and validates a scenario from functional options.
func NewScenario(opts ...ScenarioOption) (Scenario, error) { return scenario.New(opts...) }

// ScenarioRunner is a compiled scenario, ready to replay: Run(ctx)
// drives the right engine with cancellation, Observe streams events.
type ScenarioRunner = scenario.Runner

// ScenarioObserver streams a run's events as they happen: committed
// batches (with the kills each suffered) and routing decisions (with the
// migrations among them).
type ScenarioObserver = scenario.Observer

// ScenarioReport is the unified outcome of a scenario run: a superset of
// the cluster and grid reports.
type ScenarioReport = scenario.Report

// ScenarioInfo describes what a scenario compiled to (resolved policy
// names, stream size, fault plan): what the report renderers consume.
type ScenarioInfo = scenario.Info

// Compile validates the scenario eagerly and returns the runner of its
// topology. Every configuration error is a *ValidationError naming the
// offending field path.
func Compile(s Scenario) (ScenarioRunner, error) { return scenario.Compile(s) }

// ScenarioServeConfig compiles a scenario into a live-service
// configuration (grid section plus the optional service pacing section).
func ScenarioServeConfig(s Scenario) (ServeConfig, error) { return scenario.ServeConfig(s) }

// WriteScenario serializes a scenario as versioned JSON.
func WriteScenario(w io.Writer, s Scenario) error { return scenario.WriteScenario(w, s) }

// SaveScenario writes a scenario to a file path.
func SaveScenario(path string, s Scenario) error { return scenario.SaveScenario(path, s) }

// LoadScenario reads a scenario from a file path.
func LoadScenario(path string) (Scenario, error) { return scenario.LoadScenario(path) }

// FormatScenarioBatchLine renders one committed batch as the standard
// verbose line of the CLIs.
func FormatScenarioBatchLine(br ClusterBatchReport) string { return scenario.FormatBatchLine(br) }

// FormatScenarioDecisionLine renders one routing decision as the
// standard verbose line of the CLIs.
func FormatScenarioDecisionLine(d GridDecision) string { return scenario.FormatDecisionLine(d) }

// WriteScenarioReport renders the unified report as the standard text
// report of the matching topology (the byte format the golden files pin).
func WriteScenarioReport(w io.Writer, info ScenarioInfo, rep *ScenarioReport) error {
	return scenario.WriteReport(w, info, rep)
}

// WriteScenarioReportJSON exports a grid report as the stable JSON shape.
func WriteScenarioReportJSON(w io.Writer, rep *ScenarioReport) error {
	return scenario.WriteReportJSON(w, rep)
}

// WriteScenarioReportCSV exports the per-cluster summary as CSV (fault
// columns appear exactly when the scenario carries a fault plan).
func WriteScenarioReportCSV(w io.Writer, info ScenarioInfo, rep *ScenarioReport) error {
	return scenario.WriteReportCSV(w, info, rep)
}

// WriteScenarioTrace renders the event trace of a finished run — every
// batch, routing decision, kill, migration and the closing drain, stamped
// with simulated time — as "jsonl" (one event per line) or "chrome"
// (Chrome trace-event JSON, one track per cluster, viewable in perfetto);
// an empty format means chrome. Seeded replays render byte-identically.
func WriteScenarioTrace(w io.Writer, format string, rep *ScenarioReport) error {
	return scenario.WriteTrace(w, format, rep)
}

// WriteServeFinalReport renders a drained service's final report as the
// standard text.
func WriteServeFinalReport(w io.Writer, rep *ServeFinalReport) { scenario.WriteFinalReport(w, rep) }

// ---------------------------------------------------------------------------
// Observability: observers, pprof
// ---------------------------------------------------------------------------

// MergeScenarioObservers chains two observers: each event invokes a's
// callback then b's. Use it to stack ScenarioLogObserver under your own
// observer.
func MergeScenarioObservers(a, b ScenarioObserver) ScenarioObserver {
	return scenario.MergeObservers(a, b)
}

// ServeDebugHandler returns the net/http/pprof endpoints on their
// standard /debug/pprof/ paths as an explicit mux; the CLIs bind it to
// a separate listener behind -debug-addr.
func ServeDebugHandler() http.Handler { return serve.DebugHandler() }

// ---------------------------------------------------------------------------
// Flight recorder: per-job "why" for every scheduling decision
// ---------------------------------------------------------------------------

// FlightRecorder materializes per-job timelines
// (submitted → routed → batched → planned → started → killed/resubmitted
// → done) from a run's report, with per-shard routing verdicts, the
// winning portfolio algorithm, the chosen allotment and the batch lower
// bound on every event. Events sort under a total order, so concurrent
// and sequential replays render byte-identical timelines. Attach one to a
// compiled scenario with ScenarioRunner.Flight; each run refills it.
type FlightRecorder = flight.Recorder

// FlightEvent is one recorded stage of a job's flight.
type FlightEvent = flight.Event

// NewFlightRecorder builds an empty flight recorder.
func NewFlightRecorder() *FlightRecorder { return flight.NewRecorder() }

// WriteFlightTimeline renders one job's timeline as the human-readable
// text `bicrit explain` prints.
func WriteFlightTimeline(w io.Writer, job int, events []FlightEvent) error {
	return flight.FormatTimeline(w, job, events)
}

// ReadFlightTrace parses a flight trace written by
// FlightRecorder.WriteJSONL.
func ReadFlightTrace(r io.Reader) (*FlightRecorder, error) { return flight.ReadJSONL(r) }

// IsFlightTrace sniffs whether data starts with a flight-trace header
// (how `bicrit explain` distinguishes a recorded trace from a scenario
// file).
func IsFlightTrace(data []byte) bool { return flight.IsTrace(data) }

// ---------------------------------------------------------------------------
// Structured logging
// ---------------------------------------------------------------------------

// NewLogger resolves the shared -log-level/-log-json CLI contract into a
// *slog.Logger: empty level returns a discard logger (silence is the
// default), otherwise "debug", "info", "warn" or "error" as logfmt-style
// text or JSON on w.
func NewLogger(w io.Writer, level string, json bool) (*slog.Logger, error) {
	return logx.New(w, level, json)
}

// ScenarioLogObserver returns an observer logging every committed batch,
// kill and migration of a run as structured records; stack it behind your
// own observer with MergeScenarioObservers.
func ScenarioLogObserver(l *slog.Logger) ScenarioObserver { return scenario.LogObserver(l) }

// ---------------------------------------------------------------------------
// Task and instance model
// ---------------------------------------------------------------------------

// Task is a moldable job: a weight (priority) and one processing time per
// possible processor allocation. See internal/moldable for the full method
// set (Time, Work, MinAllocFitting, ...).
type Task = moldable.Task

// Instance is a scheduling problem: m identical processors and a set of
// moldable tasks available at time 0.
type Instance = moldable.Instance

// NewInstance builds an instance on m processors from a task list,
// truncating allocation vectors to m entries.
func NewInstance(m int, tasks []Task) *Instance { return moldable.NewInstance(m, tasks) }

// NewSequentialTask builds a task that can only run on one processor.
func NewSequentialTask(id int, weight, duration float64) Task {
	return moldable.Sequential(id, weight, duration)
}

// NewPerfectlyMoldableTask builds a task with linear speedup up to
// maxProcs.
func NewPerfectlyMoldableTask(id int, weight, seqTime float64, maxProcs int) Task {
	return moldable.PerfectlyMoldable(id, weight, seqTime, maxProcs)
}

// ---------------------------------------------------------------------------
// Schedules
// ---------------------------------------------------------------------------

// Schedule is a complete placement of an instance's tasks (start times,
// allocations, explicit processors), with validation, metrics and a Gantt
// renderer.
type Schedule = schedule.Schedule

// ---------------------------------------------------------------------------
// The DEMT bi-criteria algorithm (the paper's contribution)
// ---------------------------------------------------------------------------

// DEMTOptions tunes the DEMT algorithm; the zero value reproduces the
// paper's algorithm (knapsack selection, list compaction with shuffling).
type DEMTOptions = core.Options

// DEMTResult is the output of the DEMT algorithm: final schedule, raw batch
// schedule, batch structure and the makespan estimate/lower bound.
type DEMTResult = core.Result

// DEMT runs the bi-criteria batch algorithm of the paper on the instance.
// A nil options pointer uses the paper's defaults. Cancelling the context
// aborts the run with the context's error.
func DEMT(ctx context.Context, inst *Instance, opts *DEMTOptions) (*DEMTResult, error) {
	return core.ScheduleContext(ctx, inst, opts)
}

// ---------------------------------------------------------------------------
// Baseline algorithms of the paper's evaluation
// ---------------------------------------------------------------------------

// Gang schedules every task on all the processors it can use, sorted by
// decreasing weight over execution time.
func Gang(ctx context.Context, inst *Instance) (*Schedule, error) {
	return baselines.GangContext(ctx, inst)
}

// SequentialLPT schedules every task on a single processor with the
// largest-processing-time-first list algorithm.
func SequentialLPT(ctx context.Context, inst *Instance) (*Schedule, error) {
	return baselines.SequentialContext(ctx, inst)
}

// ListOrder selects the priority order of the list-scheduling baseline.
type ListOrder = baselines.ListOrder

// List-scheduling orders.
const (
	ListShelfOrder        = baselines.ShelfOrder
	ListWeightedLPT       = baselines.WeightedLPT
	ListSmallestAreaFirst = baselines.SmallestAreaFirst
)

// ListScheduling computes the dual-approximation allotment and runs the
// Graham list algorithm with the requested order.
func ListScheduling(ctx context.Context, inst *Instance, order ListOrder) (*Schedule, error) {
	return baselines.ListGrahamContext(ctx, inst, order)
}

// ---------------------------------------------------------------------------
// Lower bounds
// ---------------------------------------------------------------------------

// MakespanLowerBound returns a certified lower bound on the optimal
// makespan.
func MakespanLowerBound(inst *Instance) float64 { return lowerbound.Makespan(inst) }

// MinsumLowerBoundOptions tunes the LP lower bound.
type MinsumLowerBoundOptions = lowerbound.MinsumOptions

// MinsumLowerBound is the result of the LP lower bound.
type MinsumLowerBound = lowerbound.MinsumBound

// MinsumLowerBoundLP computes the paper's LP-relaxation lower bound on the
// weighted sum of completion times.
func MinsumLowerBoundLP(inst *Instance, opts *MinsumLowerBoundOptions) (*MinsumLowerBound, error) {
	return lowerbound.MinsumLP(inst, opts)
}

// MinsumLowerBoundFast computes the cheap squashed-area lower bound on the
// weighted sum of completion times.
func MinsumLowerBoundFast(inst *Instance) float64 { return lowerbound.MinsumSquashedArea(inst) }

// ---------------------------------------------------------------------------
// Workload generation and persistence
// ---------------------------------------------------------------------------

// WorkloadKind selects one of the paper's workload families.
type WorkloadKind = workload.Kind

// Workload families of the paper's evaluation.
const (
	WorkloadWeaklyParallel = workload.WeaklyParallel
	WorkloadHighlyParallel = workload.HighlyParallel
	WorkloadMixed          = workload.Mixed
	WorkloadCirne          = workload.Cirne
)

// WorkloadConfig drives instance generation.
type WorkloadConfig = workload.Config

// GenerateWorkload builds a random instance following the paper's models.
func GenerateWorkload(cfg WorkloadConfig) (*Instance, error) { return workload.Generate(cfg) }

// ParseWorkloadKind converts a string such as "cirne" into a WorkloadKind.
func ParseWorkloadKind(s string) (WorkloadKind, error) { return workload.ParseKind(s) }

// SaveInstance writes an instance to a JSON file.
func SaveInstance(path string, inst *Instance) error { return workload.SaveInstance(path, inst) }

// LoadInstance reads an instance from a JSON file.
func LoadInstance(path string) (*Instance, error) { return workload.LoadInstance(path) }

// WriteInstance serializes an instance as JSON.
func WriteInstance(w io.Writer, inst *Instance) error { return workload.WriteInstance(w, inst) }

// ---------------------------------------------------------------------------
// Experiment harness (the paper's figures)
// ---------------------------------------------------------------------------

// ExperimentConfig drives one experiment (one figure of the paper).
type ExperimentConfig = experiment.Config

// ExperimentResult is a complete figure: one series per algorithm.
type ExperimentResult = experiment.Result

// RunExperiment executes an experiment (see internal/experiment for the
// aggregation rules, which follow section 4.2 of the paper).
func RunExperiment(ctx context.Context, cfg ExperimentConfig) (*ExperimentResult, error) {
	return experiment.Run(ctx, cfg)
}

// ---------------------------------------------------------------------------
// On-line batch scheduling and cluster simulation
// ---------------------------------------------------------------------------

// OnlineJob is a moldable task with a release date.
type OnlineJob = cluster.Job

// ClusterConfig drives the event-driven cluster engine (machine size,
// algorithm portfolio, objective, batching policy, reservations,
// perturbation).
type ClusterConfig = cluster.Config

// ClusterReport is the outcome of a cluster run (realized schedule, batch
// reports, aggregate metrics).
type ClusterReport = cluster.Report

// ClusterBatchReport describes one committed batch, including its kills
// and the running utilization, streamed to Config.OnBatch.
type ClusterBatchReport = cluster.BatchReport

// ClusterAlgorithm is one member of the scheduling portfolio.
type ClusterAlgorithm = cluster.Algorithm

// ClusterObjective selects the criterion the engine minimizes per batch.
type ClusterObjective = cluster.Objective

// ClusterBatchPolicy decides when the engine fires the next batch.
type ClusterBatchPolicy = cluster.BatchPolicy

// Cluster objectives.
const (
	ClusterObjectiveMakespan           = cluster.ObjectiveMakespan
	ClusterObjectiveWeightedCompletion = cluster.ObjectiveWeightedCompletion
	ClusterObjectiveCombined           = cluster.ObjectiveCombined
)

// RunClusterContext builds an engine and replays the job stream through
// it. The context is checked between batches, so cancelling it aborts the
// replay promptly (errors.Is(err, ctx.Err()) holds on the returned error).
//
// With Config{M: m, Portfolio: []ClusterAlgorithm{ClusterDEMTAlgorithm(opts)},
// Policy: BatchOnIdle()} and no Perturb, this is the on-line batch
// framework of section 2.2 of the paper: jobs released while a batch runs
// wait for the next batch, and each batch is scheduled off-line by DEMT.
func RunClusterContext(ctx context.Context, cfg ClusterConfig, jobs []OnlineJob) (*ClusterReport, error) {
	eng, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	return eng.RunContext(ctx, jobs)
}

// ClusterPortfolio returns the paper's full comparison as a portfolio:
// DEMT (with the given options, nil for the paper's defaults) plus every
// baseline.
func ClusterPortfolio(opts *DEMTOptions) []ClusterAlgorithm { return cluster.DefaultPortfolio(opts) }

// ClusterDEMTAlgorithm wraps the DEMT scheduler as a portfolio member.
func ClusterDEMTAlgorithm(opts *DEMTOptions) ClusterAlgorithm { return cluster.DEMTAlgorithm(opts) }

// BatchOnIdle fires a batch as soon as the machine is idle and jobs are
// pending (the framework of section 2.2 of the paper).
func BatchOnIdle() ClusterBatchPolicy { return cluster.BatchOnIdle() }

// UniformRuntimeNoise builds a deterministic runtime perturbation scaling
// every planned duration by a uniform factor in [1-frac, 1+frac], keyed by
// (seed, taskID). A frac of 0 yields nil (exact execution); a frac outside
// [0, 1) is an error.
func UniformRuntimeNoise(frac float64, seed int64) (func(taskID int, planned float64) float64, error) {
	return cluster.UniformNoise(frac, seed)
}

// Arrival is a generated job with its submission time.
type Arrival = workload.Arrival

// ArrivalConfig drives the arrival generator: Poisson or heavy-tailed
// inter-arrival gaps, optional bursts, optional heavy-tailed runtime
// scaling.
type ArrivalConfig = workload.ArrivalConfig

// Arrival and runtime distributions: the sampling laws of
// ArrivalConfig's inter-arrival gaps and runtime multipliers.
const (
	DistDefault     = workload.DistDefault
	DistExponential = workload.DistExponential
	DistLognormal   = workload.DistLognormal
	DistWeibull     = workload.DistWeibull
)

// GenerateArrivals builds a deterministic on-line job stream: tasks from a
// workload family, submitted at Poisson (or bursty, heavy-tailed) instants.
func GenerateArrivals(cfg ArrivalConfig) ([]Arrival, error) { return workload.GenerateArrivals(cfg) }

// ArrivalJobs adapts an arrival stream to the on-line and cluster inputs.
func ArrivalJobs(arrivals []Arrival) []OnlineJob { return cluster.JobsFromArrivals(arrivals) }

// SimulationOptions tunes the discrete-event execution of a schedule.
type SimulationOptions = sim.Options

// SimulationResult reports the realized execution of a schedule.
type SimulationResult = sim.Result

// Simulate executes a schedule on the discrete-event cluster simulator.
func Simulate(inst *Instance, sched *Schedule, opts *SimulationOptions) (*SimulationResult, error) {
	return sim.Execute(inst, sched, opts)
}

// ---------------------------------------------------------------------------
// Grid federation: many clusters behind one meta-scheduler
// ---------------------------------------------------------------------------

// GridClusterSpec configures one shard of a grid federation: processor
// count, portfolio, objective, batching policy, reservations and runtime
// perturbation.
type GridClusterSpec = grid.ClusterSpec

// GridConfig drives a grid federation (shards, routing policy, admission
// control).
type GridConfig = grid.Config

// GridReport is the outcome of a grid run: routing decisions, per-shard
// cluster reports and the grid-wide aggregate.
type GridReport = grid.Report

// GridDecision records one routing decision of the meta-scheduler.
type GridDecision = grid.Decision

// GridRoutingPolicy decides which cluster receives each job of the stream.
type GridRoutingPolicy = grid.RoutingPolicy

// RunGridContext builds a federation and replays the job stream through
// it. The context threads into every shard engine's batch loop, so cancelling it aborts the whole
// federation run without deadlock, even on the concurrent path.
func RunGridContext(ctx context.Context, cfg GridConfig, jobs []OnlineJob) (*GridReport, error) {
	f, err := grid.New(cfg)
	if err != nil {
		return nil, err
	}
	return f.RunContext(ctx, jobs)
}

// GridRoundRobin cycles jobs over the clusters open for admission.
func GridRoundRobin() GridRoutingPolicy { return grid.RoundRobin() }

// GridLeastBacklog routes each job to the cluster with the smallest
// estimated per-processor backlog.
func GridLeastBacklog() GridRoutingPolicy { return grid.LeastBacklog() }

// GridLowerBoundAware routes each job to the cluster whose DEMT makespan
// lower bound grows least by admitting it.
func GridLowerBoundAware() GridRoutingPolicy { return grid.LowerBoundAware() }

// GridMoldabilityAware routes each job to the smallest cluster fitting its
// useful parallelism.
func GridMoldabilityAware() GridRoutingPolicy { return grid.MoldabilityAware() }

// ---------------------------------------------------------------------------
// Live scheduler service: the grid behind a concurrent submission API
// ---------------------------------------------------------------------------

// ServeConfig drives a live scheduler service: the grid behind it, the
// wall-clock speedup, rate limiting, admission control, live-state
// refreshing and snapshots.
type ServeConfig = serve.Config

// ServeServer is a long-running scheduler service: jobs are submitted
// while the portfolio scheduler runs, with live job states, metrics,
// snapshots and graceful drain. See internal/serve for the architecture.
type ServeServer = serve.Server

// ServeCounters are the monotone admission statistics of a service.
type ServeCounters = serve.Counters

// ServeJobStatus is the live view of one submitted job.
type ServeJobStatus = serve.JobStatus

// ServeJobSpec is the wire form of one job submission.
type ServeJobSpec = serve.JobSpec

// ServeAccepted acknowledges one admitted job with its virtual release.
type ServeAccepted = serve.Accepted

// ServeFinalReport is the outcome of a drained service: the grid report
// of the full deterministic replay of everything the service admitted.
type ServeFinalReport = serve.FinalReport

// NewServeServer validates the configuration, restores a snapshot when
// one exists, and starts the service (refresher, snapshot writer). Stop
// it with Drain.
func NewServeServer(cfg ServeConfig) (*ServeServer, error) { return serve.NewServer(cfg) }

// ---------------------------------------------------------------------------
// Fault injection and self-healing rescheduling
// ---------------------------------------------------------------------------

// FaultsPlan is a deterministic fault scenario: node crash/repair windows
// and whole-shard outages, known in full before a replay starts. The zero
// (or nil) plan injects nothing and leaves every layer's output
// byte-identical to a run without the subsystem.
type FaultsPlan = faults.Plan

// FaultsConfig drives the seeded fault-event generator: Weibull MTBF per
// node, lognormal repairs, correlated multi-node failures and whole-shard
// outages.
type FaultsConfig = faults.Config

// GenerateFaults builds the deterministic fault plan of the configuration:
// a pure function of the config, whatever the call order or the machine.
func GenerateFaults(cfg FaultsConfig) (*FaultsPlan, error) { return faults.Generate(cfg) }

// SuggestFaultHorizon estimates a fault-generation horizon for a job
// stream from its last submission and total minimum work on the machine.
func SuggestFaultHorizon(maxRelease, totalMinWork float64, procs int) float64 {
	return faults.SuggestHorizon(maxRelease, totalMinWork, procs)
}

// ClusterReplanPolicy decides what a killed job looks like when it rejoins
// the queue: restart from scratch, or checkpoint-credit the finished work.
type ClusterReplanPolicy = cluster.ReplanPolicy

// Replan models for killed jobs.
const (
	ClusterReplanRestart    = cluster.ReplanRestart
	ClusterReplanCheckpoint = cluster.ReplanCheckpoint
)

// ---------------------------------------------------------------------------
// Node reservations (section 5 of the paper, "on-going works")
// ---------------------------------------------------------------------------

// Reservation blocks a number of processors during a time window
// (maintenance, advance reservation for another user, ...).
type Reservation = reservation.Reservation

// ReservationOptions tunes the reservation-aware scheduler.
type ReservationOptions = reservation.Options

// ReservationResult is the outcome of reservation-aware scheduling.
type ReservationResult = reservation.Result

// ScheduleWithReservations runs DEMT and places the resulting plan around
// the reserved windows (no job uses a reserved processor while it is
// blocked).
func ScheduleWithReservations(ctx context.Context, inst *Instance, reservations []Reservation, opts *ReservationOptions) (*ReservationResult, error) {
	return reservation.Schedule(ctx, inst, reservations, opts)
}

// ValidateReservations checks that a schedule never uses a reserved
// processor during its blocked window.
func ValidateReservations(sched *Schedule, reservations []Reservation, blocked [][]int) error {
	return reservation.ValidateAgainstReservations(sched, reservations, blocked)
}

// ---------------------------------------------------------------------------
// SWF trace interchange
// ---------------------------------------------------------------------------

// TraceRecord is one job of a (simplified) Standard Workload Format trace.
type TraceRecord = trace.Record

// WriteTrace emits SWF records.
func WriteTrace(w io.Writer, records []TraceRecord) error { return trace.Write(w, records) }

// ScheduleToTrace exports a schedule as SWF records (submission times taken
// from the releases map, 0 when absent).
func ScheduleToTrace(inst *Instance, sched *Schedule, releases map[int]float64) []TraceRecord {
	return trace.FromSchedule(inst, sched, releases)
}
