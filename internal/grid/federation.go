// Package grid federates many independent cluster engines behind one
// job-routing front door: a sharded multi-cluster grid with a concurrent
// meta-scheduler.
//
// A Federation runs N internal/cluster engines — heterogeneous processor
// counts, independent reservations, batching policies and perturbation
// seeds — as concurrent shards. The meta-scheduler consumes a single
// arrival stream in deterministic order (release date, then task ID) and
// routes every job to one cluster under a pluggable routing policy:
// round-robin, least-backlog, lower-bound-aware (the cluster whose
// squashed-area bound on the drained backlog clock ends earliest) or
// moldability-aware (jobs go to the smallest cluster fitting their useful
// parallelism). Admission control
// closes a cluster while its estimated backlog exceeds a limit. Routing is
// one sequential pass that hands every shard session its jobs directly;
// the shards then replay their sub-streams through their engines in
// parallel.
//
// Replays are deterministic: routing decisions are a pure function of the
// stream and the policy, every cluster engine is deterministic, and the
// aggregation is order-fixed — so a concurrent run is bit-identical to a
// sequential one under the same configuration, which the tests assert for
// every policy.
package grid

import (
	"context"
	"math"

	"bicriteria/internal/cluster"
	"bicriteria/internal/faults"
	"bicriteria/internal/obs"
	"bicriteria/internal/reservation"
	"bicriteria/internal/validate"
)

// ClusterSpec configures one shard of the federation. The zero values of
// the optional fields mean what they mean in cluster.Config (default
// portfolio, makespan objective, batch-on-idle policy, exact runtimes).
type ClusterSpec struct {
	// M is the shard's processor count.
	M int
	// Portfolio, Objective, Policy and Reservations configure the shard's
	// engine exactly like cluster.Config.
	Portfolio    []cluster.Algorithm
	Objective    cluster.Objective
	Policy       cluster.BatchPolicy
	Reservations []reservation.Reservation
	// Perturb is the shard's runtime perturbation (independent noise seeds
	// per shard make the grid heterogeneous in time as well as in size).
	Perturb func(taskID int, planned float64) float64
	// Racing enables the shard's portfolio early cutoff, exactly like
	// cluster.Config.Racing. The zero value disables racing.
	Racing cluster.Racing
}

// Config drives a grid federation.
type Config struct {
	// Clusters lists the shards. At least one is required.
	Clusters []ClusterSpec
	// Routing picks the cluster of every job; nil means LeastBacklog().
	Routing RoutingPolicy
	// AdmitBacklog closes a cluster to new admissions while its estimated
	// per-processor backlog (in time units) exceeds the limit; jobs are
	// steered to open clusters instead. Zero disables admission control.
	// When every cluster is saturated, all of them are offered again: the
	// grid never drops a job.
	AdmitBacklog float64
	// Sequential disables all goroutines: shards run one after the other
	// instead of one goroutine each (every engine already runs its
	// portfolio one member at a time). The reports are identical either
	// way; the switch exists for the determinism tests.
	Sequential bool
	// Faults injects a deterministic fault plan: node outages go to the
	// matching shard engines (running jobs are killed and replanned),
	// shard outages additionally close the shard at the router, kill
	// whatever it was running and drain its queued jobs back through the
	// routing policy as migrations. Nil or empty means no faults and
	// bit-identical behaviour to a federation without the field.
	Faults *faults.Plan
	// Replan selects how shard engines resubmit killed jobs; the zero
	// value restarts them from scratch.
	Replan cluster.ReplanPolicy
	// MaxRetries caps per-job kills before a shard engine abandons the job
	// as lost; zero means cluster.DefaultMaxRetries.
	MaxRetries int
	// OnDecision, when non-nil, receives every routing decision in stream
	// order as it is made.
	OnDecision func(Decision)
	// OnBatch, when non-nil, receives every shard engine's batch report as
	// soon as the batch completes, tagged with the shard index. On the
	// concurrent path the shards call it from their own goroutines, so
	// implementations must be safe for concurrent use (the scenario layer
	// serializes with a mutex). Nil leaves the replay untouched.
	OnBatch func(cluster int, br cluster.BatchReport)
	// Metrics, when non-nil, receives wall-clock timing histograms of the
	// grid hot path: the routing pass, plus every shard engine's portfolio
	// and batch-planning timings (the registry is shared across shards,
	// which is safe — all registry operations are mutex-protected).
	// Timings never influence routing or scheduling, so instrumented
	// replays stay bit-identical.
	Metrics *obs.Registry
}

// Report is the outcome of a grid run.
type Report struct {
	// Policy is the routing policy's name.
	Policy string
	// Decisions lists every routing decision in stream order.
	Decisions []Decision
	// Clusters holds the per-shard engine reports, indexed like
	// Config.Clusters.
	Clusters []*cluster.Report
	// Metrics is the grid-wide aggregate.
	Metrics Metrics
}

// Federation is a reusable grid with a fixed configuration.
type Federation struct {
	cfg     Config
	engines []*cluster.Engine
}

// New validates the configuration eagerly and builds the federation,
// including every shard engine. Bad configurations fail here — before any
// shard goroutine spawns — with a validate.Error naming the offending
// field path ("clusters[2].m", "admit_backlog", ...).
func New(cfg Config) (*Federation, error) {
	if len(cfg.Clusters) == 0 {
		return nil, validate.Errorf("clusters", "federation needs at least one cluster")
	}
	if cfg.AdmitBacklog < 0 || math.IsNaN(cfg.AdmitBacklog) || math.IsInf(cfg.AdmitBacklog, 0) {
		return nil, validate.Errorf("admit_backlog", "admission backlog limit must be non-negative and finite, got %g", cfg.AdmitBacklog)
	}
	if cfg.Routing == nil {
		cfg.Routing = LeastBacklog()
	}
	sizes := make([]int, len(cfg.Clusters))
	for i, spec := range cfg.Clusters {
		sizes[i] = spec.M
	}
	if err := cfg.Faults.Validate(sizes); err != nil {
		return nil, validate.Prefix("faults", err)
	}
	f := &Federation{cfg: cfg, engines: make([]*cluster.Engine, len(cfg.Clusters))}
	for i, spec := range cfg.Clusters {
		ccfg := cluster.Config{
			M:            spec.M,
			Portfolio:    spec.Portfolio,
			Objective:    spec.Objective,
			Policy:       spec.Policy,
			Reservations: spec.Reservations,
			Perturb:      spec.Perturb,
			Racing:       spec.Racing,
			Outages:      cfg.Faults.ClusterWindows(i, spec.M),
			Replan:       cfg.Replan,
			MaxRetries:   cfg.MaxRetries,
			Metrics:      cfg.Metrics,
		}
		if cfg.OnBatch != nil {
			shard := i
			onBatch := cfg.OnBatch
			ccfg.OnBatch = func(br cluster.BatchReport) { onBatch(shard, br) }
		}
		eng, err := cluster.New(ccfg)
		if err != nil {
			return nil, validate.Prefix(validate.Index("clusters", i), err)
		}
		f.engines[i] = eng
	}
	return f, nil
}

// RunContext routes the job stream across the shards and replays every
// shard through its engine — the shards concurrently unless
// Config.Sequential, each engine's portfolio members one at a time — then
// aggregates the grid metrics. The report is bit-identical between the
// sequential and the concurrent path. The context is threaded into every
// shard engine's replay loop, so cancelling it aborts the whole grid run
// between batches — concurrent shards each observe the cancellation,
// return promptly, and the WaitGroup join cannot deadlock. The returned
// error wraps the context's (errors.Is(err, context.Canceled) holds). It
// is a Session fed the whole stream at once.
func (f *Federation) RunContext(ctx context.Context, jobs []cluster.Job) (*Report, error) {
	s := f.NewSession(ctx)
	if err := s.Feed(jobs...); err != nil {
		return nil, err
	}
	return s.Finish()
}
