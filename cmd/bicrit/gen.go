package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"bicriteria"
)

// genCmd writes a scenario file from flags, so a replay or a service can
// be set up from the command line without hand-writing JSON. The single
// -seed flag deterministically derives every sub-stream: the task stream uses
// the seed itself, arrival instants seed^ArrivalSeedSalt, runtime tails
// seed^RuntimeSeedSalt, and the fault plan seed^ScenarioFaultSeedSalt
// (left implicit in the file — the compiler derives it — unless
// -fault-seed pins one explicitly).
func genCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bicrit gen", flag.ContinueOnError)
	name := fs.String("name", "", "scenario name (reports, file headers)")
	topology := fs.String("topology", "", "single or grid (default: single for one cluster, grid otherwise)")
	clustersFlag := fs.String("clusters", "64", "comma-separated processor counts, one per cluster")
	kindFlag := fs.String("kind", "mixed", "workload family: weakly-parallel, highly-parallel, mixed or cirne")
	n := fs.Int("n", 100, "number of generated jobs")
	seed := fs.Int64("seed", 1, "master seed; sub-seeds for arrivals, runtime tails and faults derive from it")
	rate := fs.Float64("rate", 4, "mean job arrival rate (jobs per time unit)")
	burst := fs.Int("burst", 1, "arrival burst size")
	arrivalFlag := fs.String("arrival", "", "inter-arrival law: exponential (default), lognormal or weibull")
	arrivalShape := fs.Float64("arrival-shape", 0, "lognormal sigma or weibull shape of the arrival law (0 = default)")
	runtimeFlag := fs.String("runtime-tail", "", "heavy-tailed runtime scaling: lognormal or weibull (default none)")
	runtimeShape := fs.Float64("runtime-shape", 0, "shape of the runtime scaling law (0 = default)")
	arrivalsFile := fs.String("arrivals-file", "", "replay this saved arrival stream instead of generating")
	traceFile := fs.String("trace", "", "replay this SWF trace instead of generating")
	batchFlag := fs.String("batch", "", "batching policy: idle (default), interval or adaptive")
	interval := fs.Float64("interval", 0, "period of the interval policy (0 = default 25)")
	workFactor := fs.Float64("work-factor", 0, "adaptive policy work factor (0 = default 4)")
	maxDelay := fs.Float64("max-delay", 0, "adaptive policy max delay (0 = default 50)")
	objectiveFlag := fs.String("objective", "", "commit objective: makespan (default), minsum or combined")
	alpha := fs.Float64("alpha", 0, "makespan weight of the combined objective (0 = default 0.5)")
	routingFlag := fs.String("routing", "", "grid routing policy: round-robin, least-backlog (default), lower-bound or moldability")
	admit := fs.Float64("admit", 0, "grid admission control backlog limit (0 = unlimited)")
	noise := fs.Float64("noise", 0, "runtime perturbation fraction in [0, 1)")
	raceCutoff := fs.Float64("race-cutoff", 0, "racing section: portfolio cutoff factor vs the batch lower bound; >1 enables racing (0 = omit the section)")
	bandit := fs.Bool("bandit", false, "racing section: bias the launch order toward recent winners")
	raceSeed := fs.Int64("race-seed", 0, "racing section: explicit bandit seed (0 = derive seed^ScenarioRaceSeedSalt)")
	faultMTBF := fs.Float64("fault-mtbf", 0, "fault injection: mean time between failures per node (0 = no faults section)")
	faultShape := fs.Float64("fault-shape", 0, "Weibull shape of the failure law (0 = default)")
	faultRepair := fs.Float64("fault-repair", 0, "mean node repair duration (0 = mtbf/10)")
	faultSeed := fs.Int64("fault-seed", 0, "explicit fault seed (0 = derive seed^ScenarioFaultSeedSalt)")
	faultCorrMTBF := fs.Float64("fault-corr-mtbf", 0, "mean time between correlated group failures (0 = none)")
	faultCorrSize := fs.Int("fault-corr-size", 0, "nodes per correlated failure group (0 = quarter of the cluster)")
	shardMTBF := fs.Float64("shard-mtbf", 0, "mean time between whole-shard outages (0 = none)")
	shardRepair := fs.Float64("shard-repair", 0, "mean shard outage duration (0 = shard-mtbf/10)")
	faultHorizon := fs.Float64("fault-horizon", 0, "explicit fault-generation horizon (0 = estimate from the stream; required with service flags)")
	replanFlag := fs.String("replan", "", "killed-job resubmission: restart (default) or checkpoint")
	checkpointCredit := fs.Float64("checkpoint-credit", 0, "checkpoint credit fraction in [0, 1] (0 = full)")
	sloDeadline := fs.Float64("slo-deadline-factor", 0, "SLO section: deadline = release + factor*pmin (0 = omit unless other slo flags set; section default 4)")
	sloMissBudget := fs.Float64("slo-miss-budget", 0, "SLO section: tolerated deadline-miss rate in [0, 1)")
	sloBurnWindow := fs.Float64("slo-burn-window", 0, "SLO section: trailing burn-rate window in time units (0 = no burn alert)")
	sloStretch := fs.Float64("slo-stretch-target", 0, "SLO section: p99 stretch alert threshold (0 = no stretch alert)")
	sloWait := fs.Float64("slo-wait-target", 0, "SLO section: p99 wait alert threshold (0 = no wait alert)")
	speedup := fs.Float64("speedup", 0, "service section: virtual time units per wall second (0 = omit unless other service flags set)")
	submitRate := fs.Float64("submit-rate", 0, "service section: token-bucket rate limit (0 = unlimited)")
	admitBacklog := fs.Float64("admit-backlog", 0, "service section: front-door backlog limit (0 = unlimited)")
	snapshot := fs.String("snapshot", "", "service section: snapshot file path")
	outPath := fs.String("o", "", "output scenario file (default: stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sizes, err := parseSizes(*clustersFlag)
	if err != nil {
		return err
	}

	clusters := make([]bicriteria.ScenarioCluster, len(sizes))
	for i, m := range sizes {
		clusters[i] = bicriteria.ScenarioCluster{Machines: m}
	}
	scn := bicriteria.Scenario{
		Name:     *name,
		Seed:     *seed,
		Topology: bicriteria.ScenarioTopology(*topology),
		Clusters: clusters,
		Workload: bicriteria.ScenarioWorkload{Kind: *kindFlag, Jobs: *n},
		Arrivals: bicriteria.ScenarioArrivals{
			Rate:              *rate,
			Burst:             *burst,
			Interarrival:      *arrivalFlag,
			InterarrivalShape: *arrivalShape,
			RuntimeTail:       *runtimeFlag,
			RuntimeTailShape:  *runtimeShape,
			File:              *arrivalsFile,
			Trace:             *traceFile,
		},
		Batch: bicriteria.ScenarioBatch{
			Policy: *batchFlag, Interval: *interval, WorkFactor: *workFactor, MaxDelay: *maxDelay,
		},
		Objective: bicriteria.ScenarioObjective{Kind: *objectiveFlag, Alpha: *alpha},
		Routing:   bicriteria.ScenarioRouting{Policy: *routingFlag, AdmitBacklog: *admit},
		Noise:     *noise,
	}
	if *raceCutoff > 0 || *bandit || *raceSeed != 0 {
		scn.Racing = &bicriteria.ScenarioRacing{
			Cutoff: *raceCutoff,
			Bandit: *bandit,
			Seed:   *raceSeed,
		}
	}
	if *faultMTBF > 0 || *faultCorrMTBF > 0 || *shardMTBF > 0 {
		scn.Faults = &bicriteria.ScenarioFaults{
			Seed:             *faultSeed,
			MTBF:             *faultMTBF,
			Shape:            *faultShape,
			Repair:           *faultRepair,
			CorrelatedMTBF:   *faultCorrMTBF,
			CorrelatedSize:   *faultCorrSize,
			ShardMTBF:        *shardMTBF,
			ShardRepair:      *shardRepair,
			Horizon:          *faultHorizon,
			Replan:           *replanFlag,
			CheckpointCredit: *checkpointCredit,
		}
	}
	if *sloDeadline > 0 || *sloMissBudget > 0 || *sloBurnWindow > 0 || *sloStretch > 0 || *sloWait > 0 {
		scn.SLO = &bicriteria.ScenarioSLO{
			DeadlineFactor: *sloDeadline,
			MissBudget:     *sloMissBudget,
			BurnWindow:     *sloBurnWindow,
			StretchTarget:  *sloStretch,
			WaitTarget:     *sloWait,
		}
	}
	if *speedup > 0 || *submitRate > 0 || *admitBacklog > 0 || *snapshot != "" {
		scn.Service = &bicriteria.ScenarioService{
			Speedup:      *speedup,
			SubmitRate:   *submitRate,
			AdmitBacklog: *admitBacklog,
			SnapshotPath: *snapshot,
		}
	}

	// Compile eagerly so a generated file is guaranteed to run (validation
	// plus stream/fault construction — everything but the replay). A file
	// with a service section must also build a serve config, which needs
	// an explicit fault horizon (the live stream is unbounded, so nothing
	// can estimate one): catch that at gen time, not at serve time.
	if scn.Arrivals.File == "" && scn.Arrivals.Trace == "" {
		if _, err := bicriteria.Compile(scn); err != nil {
			return err
		}
	}
	if scn.Service != nil {
		if _, err := bicriteria.ScenarioServeConfig(scn); err != nil {
			return fmt.Errorf("%w (pass -fault-horizon to make a faulted scenario servable)", err)
		}
	}
	if *outPath == "" {
		return bicriteria.WriteScenario(out, scn)
	}
	if err := bicriteria.SaveScenario(*outPath, scn); err != nil {
		return err
	}
	normalized := scn.Normalized()
	fmt.Fprintf(out, "wrote %s scenario (%s, %d jobs, seed %d) to %s\n",
		normalized.Topology, describeSizes(sizes), *n, *seed, *outPath)
	return nil
}

func describeSizes(sizes []int) string {
	parts := make([]string, len(sizes))
	for i, m := range sizes {
		parts[i] = strconv.Itoa(m)
	}
	return "clusters " + strings.Join(parts, ",")
}

// parseSizes parses a comma-separated -clusters flag into processor
// counts.
func parseSizes(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	sizes := make([]int, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		m, err := strconv.Atoi(p)
		if err != nil || m < 1 {
			return nil, fmt.Errorf("bad cluster size %q (want a positive processor count)", p)
		}
		sizes = append(sizes, m)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("-clusters lists no cluster sizes")
	}
	return sizes, nil
}
