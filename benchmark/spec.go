package main

// metricDef declares one metric of the benchmark. BENCHMARK.json carries
// name, unit and direction (and the bound of an end-to-end metric); the
// rest documents the metric for the README and the human-readable output.
type metricDef struct {
	name   string
	unit   string
	better string
	// workloads lists where a per-layer metric is measured; on every other
	// workload it reads 0 (the workload never enters the layer). Nil means
	// every workload.
	workloads []string
	// moves names the end-to-end metric the layer metric should move.
	moves string
	// bound is the share by which an end-to-end metric may worsen before a
	// change counts as a regression; also the agreement bound of -agree.
	bound float64
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports every one of them.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: lower, bound: 0.25},
	{name: "jobs_per_s", unit: "jobs/s", better: higher, bound: 0.25},
	{name: "alloc_kb_per_job", unit: "KB", better: lower, bound: 0.25},
	{name: "request_ms", unit: "ms", better: lower, bound: 0.25},
	{name: "result_ms", unit: "ms", better: lower, bound: 0.25},
	{name: "cmax_ratio", unit: "ratio", better: lower, bound: 0.08},
	{name: "minsum_ratio", unit: "ratio", better: lower, bound: 0.25},
	{name: "mean_stretch", unit: "ratio", better: lower, bound: 0.25},
}

var (
	onPaper   = []string{"paper-offline"}
	onCluster = []string{"cluster-stream"}
	onGrid    = []string{"grid-stream"}
	onServe   = []string{"serve-stream"}
	onReplays = []string{"cluster-stream", "grid-stream"}
)

// perLayer are the metrics of single layers, from the traced run.
var perLayer = []metricDef{
	// paper-offline
	{name: "moldable.validate_ms", unit: "ms", better: lower, workloads: onPaper, moves: "jobs_per_s (small share)"},
	{name: "moldable.fit_query_ns", unit: "ns", better: lower, workloads: onPaper, moves: "dualapprox.two_shelf_ms, then jobs_per_s on paper-offline and cluster-stream"},
	{name: "dualapprox.two_shelf_ms", unit: "ms", better: lower, workloads: onPaper, moves: "jobs_per_s on paper-offline; paid three times per batch on cluster-stream"},
	{name: "core.schedule_ms", unit: "ms", better: lower, workloads: onPaper, moves: "jobs_per_s, request_ms on paper-offline"},
	{name: "core.given_cmax_ms", unit: "ms", better: lower, workloads: onPaper, moves: "core.schedule_ms"},
	{name: "core.knapsack_ms", unit: "ms", better: lower, workloads: onPaper, moves: "core.given_cmax_ms"},
	{name: "core.compact_ms", unit: "ms", better: lower, workloads: onPaper, moves: "core.given_cmax_ms"},
	{name: "core.unattributed_share", unit: "ratio", better: lower, workloads: onPaper, moves: "none: the attribution gap, should fall toward 0"},
	{name: "core.allocs_per_schedule", unit: "count", better: lower, workloads: onPaper, moves: "alloc_kb_per_job"},
	{name: "core.alloc_kb_per_schedule", unit: "KB", better: lower, workloads: onPaper, moves: "alloc_kb_per_job"},
	{name: "core.batches_per_schedule", unit: "count", better: lower, workloads: onPaper, moves: "core.knapsack_ms"},
	{name: "core.shuffles_tried", unit: "count", better: lower, workloads: onPaper, moves: "core.compact_ms"},
	{name: "lowerbound.makespan_ms", unit: "ms", better: lower, workloads: []string{"paper-offline", "cluster-stream"}, moves: "jobs_per_s on the two replay workloads (computed per batch)"},
	{name: "lowerbound.squashed_area_ms", unit: "ms", better: lower, workloads: []string{"paper-offline", "cluster-stream"}, moves: "jobs_per_s on cluster-stream (combined objective)"},
	{name: "lowerbound.minsum_lp_ms", unit: "ms", better: lower, workloads: onPaper, moves: "none: the cost of the paper's reference bound"},
	{name: "lp.pivots", unit: "count", better: lower, workloads: onPaper, moves: "lowerbound.minsum_lp_ms"},
	{name: "schedule.validate_ms", unit: "ms", better: lower, workloads: onPaper, moves: "result_ms on paper-offline"},

	// cluster-stream
	{name: "scenario.compile_ms", unit: "ms", better: lower, workloads: onReplays, moves: "setup_s"},
	{name: "scenario.render_ms", unit: "ms", better: lower, workloads: onCluster, moves: "result_ms"},
	{name: "cluster.replay_seq_ms", unit: "ms", better: lower, workloads: onCluster, moves: "request_ms"},
	{name: "cluster.replay_ms", unit: "ms", better: lower, workloads: onCluster, moves: "request_ms, jobs_per_s"},
	{name: "cluster.portfolio_speedup", unit: "ratio", better: higher, workloads: onCluster, moves: "jobs_per_s (at most GOMAXPROCS)"},
	{name: "cluster.batches", unit: "count", better: lower, workloads: onCluster, moves: "none: the shape of the work"},
	{name: "cluster.batch_jobs_p50", unit: "count", better: lower, workloads: onCluster, moves: "none: the shape of the work"},
	{name: "cluster.batch_jobs_p95", unit: "count", better: lower, workloads: onCluster, moves: "none: the shape of the work"},
	{name: "cluster.batch_plan_ms_p50", unit: "ms", better: lower, workloads: onCluster, moves: "cluster.replay_seq_ms"},
	{name: "cluster.batch_plan_ms_p95", unit: "ms", better: lower, workloads: onCluster, moves: "cluster.replay_seq_ms"},
	{name: "cluster.portfolio.demt_ms", unit: "ms", better: lower, workloads: onCluster, moves: "jobs_per_s by its share of the two-core critical path"},
	{name: "cluster.portfolio.gang_ms", unit: "ms", better: lower, workloads: onCluster, moves: "jobs_per_s by its share of the two-core critical path"},
	{name: "cluster.portfolio.seq-lpt_ms", unit: "ms", better: lower, workloads: onCluster, moves: "jobs_per_s by its share of the two-core critical path"},
	{name: "cluster.portfolio.list-saf_ms", unit: "ms", better: lower, workloads: onCluster, moves: "jobs_per_s by its share of the two-core critical path"},
	{name: "cluster.portfolio.list-wlpt_ms", unit: "ms", better: lower, workloads: onCluster, moves: "jobs_per_s by its share of the two-core critical path"},
	{name: "cluster.portfolio_wasted_share", unit: "ratio", better: lower, workloads: onCluster, moves: "jobs_per_s: work whose result is thrown away"},
	{name: "sim.execute_ms", unit: "ms", better: lower, workloads: onCluster, moves: "jobs_per_s"},
	{name: "cluster.engine_self_ms", unit: "ms", better: lower, workloads: onCluster, moves: "jobs_per_s, alloc_kb_per_job"},
	{name: "cluster.allocs_per_job", unit: "count", better: lower, workloads: onCluster, moves: "alloc_kb_per_job"},

	// grid-stream
	{name: "grid.replay_seq_ms", unit: "ms", better: lower, workloads: onGrid, moves: "request_ms"},
	{name: "grid.replay_ms", unit: "ms", better: lower, workloads: onGrid, moves: "request_ms, jobs_per_s"},
	{name: "grid.shard_speedup", unit: "ratio", better: higher, workloads: onGrid, moves: "jobs_per_s"},
	{name: "grid.route_ms", unit: "ms", better: lower, workloads: onGrid, moves: "jobs_per_s on grid-stream only"},
	{name: "grid.route_us_per_job", unit: "us", better: lower, workloads: onGrid, moves: "jobs_per_s on grid-stream only"},
	{name: "grid.shard_ms_sum", unit: "ms", better: lower, workloads: onGrid, moves: "jobs_per_s (sum/2 on two cores)"},
	{name: "grid.shard_ms_max", unit: "ms", better: lower, workloads: onGrid, moves: "jobs_per_s (the slowest shard)"},
	{name: "grid.shard_time_imbalance", unit: "ratio", better: lower, workloads: onGrid, moves: "grid.shard_speedup"},
	{name: "grid.parallel_efficiency", unit: "ratio", better: higher, workloads: onGrid, moves: "jobs_per_s"},
	{name: "faults.killed", unit: "count", better: lower, workloads: onGrid, moves: "none: the shape of the work"},
	{name: "faults.resubmitted", unit: "count", better: lower, workloads: onGrid, moves: "none: the shape of the work"},
	{name: "faults.migrated", unit: "count", better: lower, workloads: onGrid, moves: "none: the shape of the work"},
	{name: "cluster.race_cancelled_share", unit: "ratio", better: higher, workloads: onGrid, moves: "jobs_per_s on grid-stream: members cut off do not run to the end"},
	{name: "flight.from_report_ms", unit: "ms", better: lower, workloads: onGrid, moves: "result_ms on serve-stream (every refresh rebuilds the recorder)"},
	{name: "flight.events", unit: "count", better: lower, workloads: onGrid, moves: "flight.from_report_ms"},
	{name: "slo.evaluate_ms", unit: "ms", better: lower, workloads: onGrid, moves: "result_ms on serve-stream when an SLO is configured"},

	// serve-stream, from the open loop
	{name: "serve.submit_ms_p50", unit: "ms", better: lower, workloads: onServe, moves: "request_ms"},
	{name: "serve.submit_ms_p90", unit: "ms", better: lower, workloads: onServe, moves: "request_ms"},
	{name: "serve.submit_ms_p95", unit: "ms", better: lower, workloads: onServe, moves: "request_ms"},
	{name: "serve.submit_ms_p50.first_third", unit: "ms", better: lower, workloads: onServe, moves: "request_ms"},
	{name: "serve.submit_ms_p50.last_third", unit: "ms", better: lower, workloads: onServe, moves: "request_ms"},
	{name: "serve.submit_growth", unit: "ratio", better: lower, workloads: onServe, moves: "request_ms: 1 means per-tick cost no longer grows with the stream"},
	{name: "serve.done_lag_ms_p50", unit: "ms", better: lower, workloads: onServe, moves: "result_ms"},
	{name: "serve.done_lag_ms_p95", unit: "ms", better: lower, workloads: onServe, moves: "result_ms"},
	{name: "serve.read_ms_p50", unit: "ms", better: lower, workloads: onServe, moves: "result_ms"},
	{name: "serve.read_ms_p95", unit: "ms", better: lower, workloads: onServe, moves: "result_ms"},
	{name: "loadgen.late_ms_p95", unit: "ms", better: lower, workloads: onServe, moves: "none: how late the generator sent; must stay under 5 ms"},
	{name: "serve.http_429_share", unit: "ratio", better: lower, workloads: onServe, moves: "jobs_per_s; must stay 0"},
	{name: "serve.drain_http_ms", unit: "ms", better: lower, workloads: onServe, moves: "jobs_per_s"},
	{name: "runtime.peak_rss_mb", unit: "MB", better: lower, workloads: onServe, moves: "alloc_kb_per_job"},
	{name: "runtime.alloc_kb_per_job", unit: "KB", better: lower, workloads: onServe, moves: "alloc_kb_per_job"},
	{name: "runtime.gc_cpu_share", unit: "ratio", better: lower, workloads: onServe, moves: "request_ms through core contention"},
	// serve-stream, direct calls on fresh servers
	{name: "serve.submit_us", unit: "us", better: lower, workloads: onServe, moves: "request_ms"},
	{name: "serve.http_submit_us_per_job", unit: "us", better: lower, workloads: onServe, moves: "request_ms"},
	{name: "serve.status_us", unit: "us", better: lower, workloads: onServe, moves: "serve.read_ms_p95"},
	{name: "serve.refresh_proxy_ms.n1000", unit: "ms", better: lower, workloads: onServe, moves: "result_ms; request_ms through core contention; nothing on grid-stream"},
	{name: "serve.refresh_proxy_ms.n3000", unit: "ms", better: lower, workloads: onServe, moves: "result_ms; request_ms through core contention; nothing on grid-stream"},
	{name: "serve.refresh_proxy_ms.n6000", unit: "ms", better: lower, workloads: onServe, moves: "result_ms; request_ms through core contention; nothing on grid-stream"},
	{name: "serve.drain_ms", unit: "ms", better: lower, workloads: onServe, moves: "jobs_per_s"},
	{name: "serve.snapshot_ms", unit: "ms", better: lower, workloads: onServe, moves: "request_ms (a snapshot every 2 s competes for the cores)"},
	{name: "serve.snapshot_bytes", unit: "count", better: lower, workloads: onServe, moves: "serve.snapshot_ms"},
	{name: "serve.restore_ms", unit: "ms", better: lower, workloads: onServe, moves: "setup_s of a restarted service"},
	{name: "serve.prom_scrape_ms", unit: "ms", better: lower, workloads: onServe, moves: "serve.read_ms_p95"},
	{name: "serve.metrics_json_ms", unit: "ms", better: lower, workloads: onServe, moves: "serve.read_ms_p95"},
	{name: "serve.timeline_us", unit: "us", better: lower, workloads: onServe, moves: "serve.read_ms_p95"},

	// every workload
	{name: "trace.overhead_share", unit: "ratio", better: lower, moves: "none: traced over untraced time of the same operation, minus 1"},
}

// workloadWhy gives each workload's reason for being in the benchmark.
var workloadWhy = map[string]string{
	"paper-offline":  "the paper's experiment: large off-line instances where dualapprox, knapsack and compaction do all the work; the only workload with the paper's two ratios to the lower bounds",
	"cluster-stream": "the same core code used the other way round: hundreds of small batches per replay, all five portfolio members run to the end, so per-call fixed cost and allocation dominate; bypasses grid and serve",
	"grid-stream":    "adds the router, shard goroutines sharing two cores, the kill/replan path and the racing portfolio that cancels stragglers; a faster straggler barely shows here",
	"serve-stream":   "the only workload where ingest, the periodic full-stream refresh, snapshots and the read handlers run with requests in flight; open loop, so a stall delays later requests",
}
