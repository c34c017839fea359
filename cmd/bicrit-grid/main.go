// Command bicrit-grid replays an on-line job stream through a sharded
// multi-cluster grid federation: a meta-scheduler routes every arriving job
// to one of N independent cluster engines (heterogeneous sizes, independent
// noise seeds) under a pluggable routing policy — round-robin,
// least-backlog, lower-bound-aware or moldability-aware — with optional
// admission control, and each shard batches and schedules its sub-stream
// with the concurrent algorithm portfolio. The run reports grid-wide
// makespan, utilization, weighted completion, stretch and bounded-slowdown
// percentiles, plus a per-cluster table; JSON and CSV exports are
// available for downstream analysis.
//
// Since the scenario API, this command is a thin shim: the flags are
// translated into a grid-topology bicriteria.Scenario and the compiled
// runner does everything. The translation is behaviour-preserving — the
// golden files pin the report, JSON and CSV bytes. `bicrit run` executes
// the same scenarios from JSON files.
//
// Usage:
//
//	bicrit-grid -clusters 64,32,16 -n 300 -kind mixed -rate 6 -routing least-backlog
//	bicrit-grid -clusters 32,32,32,32 -routing round-robin -noise 0.2 -admit 50 -v
//	bicrit-grid -clusters 64,16 -arrival lognormal -burst 10 -routing moldability \
//	    -json report.json -csv clusters.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"bicriteria"
	"bicriteria/cmd/internal/cliutil"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bicrit-grid:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bicrit-grid", flag.ContinueOnError)
	clustersFlag := fs.String("clusters", "64,32,16", "comma-separated processor counts, one per cluster shard")
	n := fs.Int("n", 200, "number of generated jobs")
	kindFlag := fs.String("kind", "mixed", "workload family: weakly-parallel, highly-parallel, mixed or cirne")
	seed := fs.Int64("seed", 1, "seed of the stream, the DEMT shuffles and the per-cluster noise")
	rate := fs.Float64("rate", 4, "mean job arrival rate (jobs per time unit)")
	burst := fs.Int("burst", 1, "arrival burst size (jobs sharing one submission instant)")
	arrivalFlag := fs.String("arrival", "exponential", "inter-arrival law: exponential, lognormal or weibull")
	arrivalShape := fs.Float64("arrival-shape", 0, "lognormal sigma or weibull shape of the arrival law (0 = default)")
	runtimeFlag := fs.String("runtime-tail", "default", "heavy-tailed runtime scaling: default (none), lognormal or weibull")
	runtimeShape := fs.Float64("runtime-shape", 0, "shape of the runtime scaling law (0 = default)")
	routingFlag := fs.String("routing", "least-backlog", "routing policy: round-robin, least-backlog, lower-bound or moldability")
	admit := fs.Float64("admit", 0, "admission control: close a cluster above this estimated per-processor backlog (0 = unlimited)")
	policyFlag := fs.String("batch", "idle", "per-shard batching policy: idle, interval or adaptive")
	interval := fs.Float64("interval", 25, "period of the interval batching policy")
	workFactor := fs.Float64("work-factor", 4, "adaptive batching: fire once backlog work >= work-factor * m")
	maxDelay := fs.Float64("max-delay", 50, "adaptive batching: maximum wait of the oldest pending job")
	objectiveFlag := fs.String("objective", "makespan", "per-batch commit objective: makespan, minsum or combined")
	alpha := fs.Float64("alpha", 0.5, "makespan weight of the combined objective")
	noise := fs.Float64("noise", 0, "runtime perturbation fraction, seeded independently per cluster")
	sequential := fs.Bool("sequential", false, "run the whole grid sequentially (shards and portfolios)")
	verbose := fs.Bool("v", false, "print one line per routing decision")
	faultMTBF := fs.Float64("fault-mtbf", 0, "fault injection: mean time between failures per node (0 = no node faults)")
	faultShape := fs.Float64("fault-shape", 0, "Weibull shape of the time-between-failures law (0 = default)")
	faultRepair := fs.Float64("fault-repair", 0, "mean node repair duration (0 = mtbf/10)")
	faultSeed := fs.Int64("fault-seed", 0, "seed of the fault plan (0 = -seed)")
	faultCorrMTBF := fs.Float64("fault-corr-mtbf", 0, "mean time between correlated group failures per cluster (0 = none)")
	faultCorrSize := fs.Int("fault-corr-size", 0, "nodes per correlated failure group (0 = quarter of the cluster)")
	shardMTBF := fs.Float64("shard-mtbf", 0, "mean time between whole-shard outages per cluster (0 = none)")
	shardRepair := fs.Float64("shard-repair", 0, "mean shard outage duration (0 = shard-mtbf/10)")
	replanFlag := fs.String("replan", "restart", "resubmission of killed jobs: restart or checkpoint")
	checkpointCredit := fs.Float64("checkpoint-credit", 0, "fraction of finished work a checkpoint restart keeps, in [0,1] (0 = full credit)")
	jsonPath := fs.String("json", "", "write the full grid report (metrics, per-cluster, decisions) as JSON")
	csvPath := fs.String("csv", "", "write the per-cluster summary table as CSV")
	if err := fs.Parse(args); err != nil {
		return err
	}

	sizes, err := parseSizes(*clustersFlag)
	if err != nil {
		return err
	}
	if _, err := bicriteria.ParseClusterReplan(*replanFlag, *checkpointCredit); err != nil {
		return err
	}
	if err := cliutil.RejectInexpressibleZeros(fs, *policyFlag, *objectiveFlag); err != nil {
		return err
	}

	clusters := make([]bicriteria.ScenarioCluster, len(sizes))
	for i, m := range sizes {
		clusters[i] = bicriteria.ScenarioCluster{Machines: m}
	}
	scn := bicriteria.Scenario{
		Seed:     *seed,
		Topology: bicriteria.TopologyGrid,
		Clusters: clusters,
		Workload: bicriteria.ScenarioWorkload{Kind: *kindFlag, Jobs: *n},
		Arrivals: bicriteria.ScenarioArrivals{
			Rate:              *rate,
			Burst:             *burst,
			Interarrival:      *arrivalFlag,
			InterarrivalShape: *arrivalShape,
			RuntimeTail:       *runtimeFlag,
			RuntimeTailShape:  *runtimeShape,
		},
		Batch: bicriteria.ScenarioBatch{
			Policy: *policyFlag, Interval: *interval, WorkFactor: *workFactor, MaxDelay: *maxDelay,
		},
		Objective:  bicriteria.ScenarioObjective{Kind: *objectiveFlag, Alpha: *alpha},
		Routing:    bicriteria.ScenarioRouting{Policy: *routingFlag, AdmitBacklog: *admit},
		Noise:      *noise,
		Sequential: *sequential,
	}
	if *faultMTBF > 0 || *faultCorrMTBF > 0 || *shardMTBF > 0 {
		// The legacy default fault seed is the raw stream seed; pass it
		// explicitly so the translation stays behaviour-preserving.
		fseed := *faultSeed
		if fseed == 0 {
			fseed = *seed
		}
		scn.Faults = &bicriteria.ScenarioFaults{
			Seed:             fseed,
			MTBF:             *faultMTBF,
			Shape:            *faultShape,
			Repair:           *faultRepair,
			CorrelatedMTBF:   *faultCorrMTBF,
			CorrelatedSize:   *faultCorrSize,
			ShardMTBF:        *shardMTBF,
			ShardRepair:      *shardRepair,
			Replan:           *replanFlag,
			CheckpointCredit: *checkpointCredit,
		}
	}

	runner, err := bicriteria.Compile(scn)
	if err != nil {
		return err
	}
	if *verbose {
		runner.Observe(bicriteria.ScenarioObserver{
			Decision: func(d bicriteria.GridDecision) {
				fmt.Fprint(out, bicriteria.FormatScenarioDecisionLine(d))
			},
		})
	}
	rep, err := runner.Run(context.Background())
	if err != nil {
		return err
	}
	if err := bicriteria.WriteScenarioReport(out, runner.Info(), rep); err != nil {
		return err
	}
	if *jsonPath != "" {
		if err := cliutil.WriteFile(*jsonPath, func(w io.Writer) error {
			return bicriteria.WriteScenarioReportJSON(w, rep)
		}); err != nil {
			return err
		}
	}
	if *csvPath != "" {
		if err := cliutil.WriteFile(*csvPath, func(w io.Writer) error {
			return bicriteria.WriteScenarioReportCSV(w, runner.Info(), rep)
		}); err != nil {
			return err
		}
	}
	return nil
}

// parseSizes parses the -clusters flag into shard processor counts.
func parseSizes(s string) ([]int, error) { return cliutil.ParseSizes(s) }
