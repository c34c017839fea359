// Fault-injection scenario: the same bursty job stream replays through a
// three-cluster grid federation under increasingly hostile seeded fault
// plans — no faults, independent node crashes, node crashes plus
// correlated group failures, and finally whole-shard outages on top. Jobs
// killed mid-run are resubmitted (restart vs checkpoint-credit replans),
// queued jobs of a dark shard migrate through the router, and the table
// shows what the faults cost: makespan growth, stretch inflation, kills,
// migrations and recoveries.
//
// Every scenario is deterministic: the fault plan is a pure function of
// its seed, a zero-fault plan reproduces the fault-free replay bit for
// bit, and concurrent replays equal sequential ones even mid-disaster.
//
// Run with:
//
//	go run ./examples/faults
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"bicriteria"
)

func main() {
	const (
		jobs = 150
		seed = 11
		rate = 10.0
	)
	sizes := []int{16, 8, 8}

	arrivals, err := bicriteria.GenerateArrivals(bicriteria.ArrivalConfig{
		Workload:  bicriteria.WorkloadConfig{Kind: bicriteria.WorkloadMixed, M: 16, N: jobs, Seed: seed},
		Rate:      rate,
		BurstSize: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	stream := bicriteria.ArrivalJobs(arrivals)

	// Size the fault horizon from the stream: last submission plus the
	// serial work spread over the machine.
	maxRelease, work := 0.0, 0.0
	for _, a := range arrivals {
		if a.Submit > maxRelease {
			maxRelease = a.Submit
		}
		w, _ := a.Task.MinWork()
		work += w
	}
	horizon := bicriteria.SuggestFaultHorizon(maxRelease, work, 32)
	fmt.Printf("fault scenario: %d jobs on 3 clusters (16+8+8 processors), fault horizon %.0f\n\n", jobs, horizon)

	base := bicriteria.FaultsConfig{
		Seed:     seed,
		Horizon:  horizon,
		Clusters: sizes,
	}
	scenarios := []struct {
		name   string
		cfg    bicriteria.FaultsConfig
		replan bicriteria.ClusterReplanPolicy
	}{
		{"no faults", base, bicriteria.ClusterReplanPolicy{}},
		{"node crashes (restart)", with(base, func(c *bicriteria.FaultsConfig) {
			c.MTBF, c.RepairMean = 15, 5
		}), bicriteria.ClusterReplanPolicy{Kind: bicriteria.ClusterReplanRestart}},
		{"node crashes (checkpoint)", with(base, func(c *bicriteria.FaultsConfig) {
			c.MTBF, c.RepairMean = 15, 5
		}), bicriteria.ClusterReplanPolicy{Kind: bicriteria.ClusterReplanCheckpoint}},
		{"+ correlated groups", with(base, func(c *bicriteria.FaultsConfig) {
			c.MTBF, c.RepairMean = 15, 5
			c.CorrelatedMTBF, c.CorrelatedSize = 40, 4
		}), bicriteria.ClusterReplanPolicy{Kind: bicriteria.ClusterReplanCheckpoint}},
		{"+ shard outages", with(base, func(c *bicriteria.FaultsConfig) {
			c.MTBF, c.RepairMean = 15, 5
			c.CorrelatedMTBF, c.CorrelatedSize = 40, 4
			c.ShardMTBF, c.ShardRepairMean = 60, 15
		}), bicriteria.ClusterReplanPolicy{Kind: bicriteria.ClusterReplanCheckpoint}},
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "scenario\twindows\tmakespan\tp95 stretch\tkilled\tmigrated\trecovered\tlost")
	for _, sc := range scenarios {
		plan, err := bicriteria.GenerateFaults(sc.cfg)
		if err != nil {
			log.Fatal(err)
		}
		cfg := bicriteria.GridConfig{
			Clusters: clusterSpecs(sizes, seed),
			Routing:  bicriteria.GridLeastBacklog(),
			Replan:   sc.replan,
		}
		windows := 0
		if !plan.Empty() {
			cfg.Faults = plan
			windows = len(plan.Nodes) + len(plan.Shards)
		}
		report, err := bicriteria.RunGridContext(context.Background(), cfg, stream)
		if err != nil {
			log.Fatal(err)
		}
		met := report.Metrics
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%.1f\t%d\t%d\t%d\t%d\n",
			sc.name, windows, met.Makespan, met.StretchP95, met.Killed, met.Migrated, met.Recovered, met.Lost)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nEvery killed job above was rescheduled (lost=0 unless a job outlived its")
	fmt.Println("retry budget): the engines replan around the repair windows they know")
	fmt.Println("about, the router drains dark shards, and the whole cascade is")
	fmt.Println("deterministic — same seed, same disaster, same recovery, bit for bit.")
}

// with copies the base config and applies one mutation.
func with(base bicriteria.FaultsConfig, f func(*bicriteria.FaultsConfig)) bicriteria.FaultsConfig {
	cfg := base
	f(&cfg)
	return cfg
}

// clusterSpecs builds the shard specs with per-shard runtime noise.
func clusterSpecs(sizes []int, seed int64) []bicriteria.GridClusterSpec {
	out := make([]bicriteria.GridClusterSpec, len(sizes))
	for i, m := range sizes {
		perturb, err := bicriteria.UniformRuntimeNoise(0.15, seed*100+int64(i))
		if err != nil {
			log.Fatal(err)
		}
		out[i] = bicriteria.GridClusterSpec{M: m, Perturb: perturb}
	}
	return out
}
