// Package bicriteria is a Go implementation of the bi-criteria moldable-job
// scheduling algorithm of Dutot, Eyraud, Mounié and Trystram ("Bi-criteria
// Algorithm for Scheduling Jobs on Cluster Platforms", SPAA 2004), together
// with every substrate the paper relies on: the moldable-task model, the
// dual-approximation makespan machinery, list-scheduling engines, the
// baseline algorithms of the paper's evaluation, the LP-relaxation lower
// bound on the weighted sum of completion times, the synthetic workload
// generators, an experiment harness reproducing the paper's figures, a
// discrete-event cluster simulator and an event-driven cluster engine that
// batches an arrival stream under pluggable policies and schedules every
// batch with an algorithm portfolio whose members run one after the other.
// RunGridContext on one shard, with the BatchOnIdle policy and DEMT as the
// only portfolio member, is the paper's on-line batch framework (section
// 2.2): jobs released while a batch runs wait for the next batch, and each
// batch is scheduled off-line by DEMT.
//
// The portfolio can also race (the "racing" scenario block): members run
// one at a time in launch order, and as soon as a candidate is provably
// within a configurable factor of the batch's certified lower bound, the
// batch commits and the members past the cut never start. A seeded
// bandit-style selector biases the launch order toward recent winners.
// The cut is decided by launch position, not finish time, so racing
// replays stay byte-identical between concurrent and sequential runs; a
// cutoff factor of 1 (or 0) disables racing and reproduces the non-racing
// engine exactly. Cut-off members surface as
// bicrit_portfolio_cancelled_total / cutoff_hits counters, per-batch
// flight-recorder provenance (bicrit explain), and the traced benchmark's
// cluster.race_cancelled_share.
//
// On top of the single-cluster engine sits a sharded grid federation
// (internal/grid, exported as the Grid* identifiers): N independent
// cluster engines with heterogeneous sizes, reservations and noise seeds
// run as concurrent shards behind a meta-scheduler that routes one arrival
// stream under pluggable policies (round-robin, least-backlog,
// lower-bound-aware, moldability-aware) with per-cluster admission
// control. Grid replays are deterministic: a
// concurrent run is bit-identical to a sequential one. See examples/grid
// for a complete program.
//
// The serve layer (internal/serve, exported as the Serve* identifiers)
// runs that grid as a live service: a long-running daemon with a
// concurrent HTTP submission API (POST /jobs, GET /jobs/{id},
// GET /metrics, GET /healthz, POST /drain), token-bucket rate limiting
// and virtual-backlog admission control (429 + Retry-After), a wall-clock
// pacer mapping real time onto simulated event time, a job registry
// tracking queued through done states, periodic snapshots with
// restore-on-restart, and a graceful drain whose final report is
// identical to an offline replay of the same submission stream. See
// bicrit serve and examples/serve.
//
// The faults layer (internal/faults, exported as the Faults* identifiers)
// injects deterministic failures through the whole stack: a seeded
// generator draws node crash/repair windows from a Weibull MTBF model
// (plus correlated group failures and whole-shard outages), the simulator
// kills jobs caught by a crash, cluster engines re-enqueue and replan them
// (restart or checkpoint-credit), the grid router drains dark shards as
// policy-aware migrations, and the serve layer surfaces a resubmitted job
// state with fault counters in /metrics. An empty plan reproduces the
// fault-free behaviour byte for byte, and faulty concurrent replays stay
// bit-identical to sequential ones — invariants the property, golden and
// determinism stress tests pin permanently. See examples/faults.
//
// The scenario layer (internal/scenario, exported as the Scenario*
// identifiers) is the composable front door over all of the above: one
// versioned, declarative Scenario spec — workload and arrivals, topology
// (single cluster or grid), batch and routing policies, objectives,
// faults, replanning and service pacing — that Compile turns into a
// Runner over the grid federation, a single cluster being a one-shard
// grid. Runners accept a
// context (cancellation threads into every batch loop), stream batch
// and routing events through an Observer, and return one unified
// Report — the run's one event log, which the text, JSON and CSV reports,
// the event trace and the flight recorder are all rendered from.
// Scenarios round-trip through versioned JSON
// (Save/LoadScenario, unknown fields rejected), the cmd/bicrit CLI
// consumes scenario files directly (run | serve | gen), and its golden
// tests pin the report bytes. Configuration errors everywhere are
// *ValidationError values naming the offending field path
// ("clusters[2].machines"), raised eagerly — before any goroutine spawns.
// See examples/scenario.
//
// The observability layer (internal/obs, reached through a compiled
// runner's Metrics and the service's endpoints) instruments all of the
// above without adding a dependency: a Prometheus text-format registry (counters, gauges,
// histograms sharing internal/stats' log-spaced bucket geometry) that
// the cluster engine, the grid federation and the serve layer publish
// wall-clock timings into (per-algorithm portfolio latency, DEMT phase
// times, batch planning, stream routing), served on GET /metrics.prom
// next to the JSON /metrics and pinned valid by a format-parsing golden
// test; and net/http/pprof behind the CLIs' -debug-addr flag, off the
// public API port. Event traces are rendered from a finished run's
// report by WriteScenarioTrace: every batch, routing decision, kill,
// migration and drain as structured events stamped with simulated time,
// as JSONL or Chrome trace-event JSON (one track per cluster, viewable
// in perfetto) — byte-identical across concurrent and sequential seeded
// replays. Wall-clock measurements flow only into metrics, never into
// scheduling decisions or traces, so the bit-identical replay
// discipline is untouched. bicrit run -trace out.json (or a trace block
// in the scenario spec) writes a trace; bicrit -version, GET /version
// and the bicrit_build_info gauge report buildinfo.Version.
//
// The flight recorder (internal/flight, exported as FlightRecorder)
// turns the same report into per-job explanations:
// one timeline per job — submitted, routed, batched, planned, started,
// killed/resubmitted, done — carrying the "why" of every stage (the
// per-shard routing verdicts, the winning portfolio algorithm, the
// chosen allotment, the batch's makespan lower bound). Timelines sort
// under a total order, so concurrent and sequential replays render byte
// for byte the same; bicrit run -flight trace.jsonl records a trace,
// bicrit explain renders a job's timeline from a trace or by replaying
// a scenario file, and the live service serves GET /jobs/{id}/timeline
// rebuilt after every refresh (final after a drain).
//
// The SLO engine (internal/slo, configured by ScenarioSLO) evaluates a
// versioned "slo" scenario block over replay outcomes: a per-job
// deadline anchored to the paper's reference value (release +
// deadline_factor times the job's own lower bound pmin), an overall
// miss budget with an optional trailing burn-rate window, and
// percentile targets on stretch and wait. The evaluation is a
// deterministic pure function, so concurrent replays report
// bit-identical summaries; reports gain an slo section, the service
// answers GET /alerts, the bicrit_slo_* gauges ride the Prometheus
// exposition and bicrit top renders an ALERTS section from them.
// Structured logging (NewLogger, log/slog behind -log-level/-log-json
// on bicrit run and bicrit serve) emits request-stamped access logs,
// admission rejections, snapshot/drain lifecycle and batch summaries to
// stderr — silent by default, so golden outputs never change.
//
// Performance is measured by one harness, benchmark/ (a module of its
// own, defined by BENCHMARK.json): four workloads from the paper's
// off-line experiment to a live bicrit serve, end-to-end metrics with a
// bound each, and per-layer metrics from a traced run. CI runs it on the
// parent commit and on the change in one job and fails only when the
// change is worse beyond a metric's bound. bicrit top is the live
// counterpart: it polls a running service's GET /metrics.prom,
// re-parses each scrape through the validating parser, and renders
// counter rates and histogram quantiles (estimated from the cumulative
// buckets) as a dependency-free terminal dashboard.
//
// The replay invariants are enforced statically, not just tested:
// tools/lint (a separate module, so the root module's dependency graph
// stays empty) ships bicrit-lint, a multichecker with five repo-specific
// analyzers — nowallclock (deterministic packages never read the wall
// clock), seededrand (no draws from math/rand's process-wide source),
// maprange (no map-iteration order leaking into observable state),
// ctxflow (exported Run*/Replay* entry points accept a context.Context
// and no root context is minted mid-stack) and wirefields (every
// exported field of a wire struct carries an explicit json tag). A
// finding fails CI; the only sanctioned suppression is a reasoned
// //lint:allow <analyzer> <reason> directive on the offending line. See
// the README's "Static guarantees" section.
//
// The root package is a thin facade over the internal packages: it exposes
// the task and schedule model, the DEMT scheduler, the baselines, the lower
// bounds, the workload generators, the simulator and the scenario system
// under one import path. It exports what the CLIs and examples call, and
// the types those calls name; a test holds it to that.
//
// # Quick start
//
//	inst, _ := bicriteria.GenerateWorkload(bicriteria.WorkloadConfig{
//		Kind: bicriteria.WorkloadCirne, M: 200, N: 100, Seed: 1,
//	})
//	res, _ := bicriteria.DEMT(ctx, inst, nil)
//	fmt.Println(res.Schedule.Makespan(), res.Schedule.WeightedCompletion(inst))
//
// See the examples/ directory and README.md for complete programs.
package bicriteria
