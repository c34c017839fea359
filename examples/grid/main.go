// Grid scenario: a federation of four heterogeneous clusters (64, 32, 16
// and 16 processors) receives one bursty, heavy-tailed stream of mixed
// moldable jobs. The example replays the same stream under every routing
// policy of the meta-scheduler — round-robin, least-backlog,
// lower-bound-aware and moldability-aware — with per-cluster runtime noise
// and admission control, and compares the grid-wide metrics side by side:
// how much a load-aware front door buys over blind cycling, and how the
// moldability-aware policy keeps wide jobs on the wide cluster.
//
// Run with:
//
//	go run ./examples/grid
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
		jobs = 160
		seed = 7
	)
	sizes := []int{64, 32, 16, 16}

	// One stream for every policy: bursts of 8 with lognormal gaps — the
	// bursty, heavy-tailed arrival pattern of real grid front doors.
	arrivals, err := bicriteria.GenerateArrivals(bicriteria.ArrivalConfig{
		Workload:     bicriteria.WorkloadConfig{Kind: bicriteria.WorkloadMixed, M: 64, N: jobs, Seed: seed},
		Rate:         6,
		BurstSize:    8,
		Interarrival: bicriteria.DistLognormal,
	})
	if err != nil {
		log.Fatal(err)
	}
	stream := bicriteria.ArrivalJobs(arrivals)
	horizon := arrivals[len(arrivals)-1].Submit
	fmt.Printf("grid scenario: %d jobs over [0, %.1f] on 4 clusters (64+32+16+16 processors)\n\n",
		jobs, horizon)

	specs := func() []bicriteria.GridClusterSpec {
		out := make([]bicriteria.GridClusterSpec, len(sizes))
		for i, m := range sizes {
			// Independent noise seed per cluster: shards disagree on how
			// wrong the user estimates are, like real machines do.
			perturb, err := bicriteria.UniformRuntimeNoise(0.15, int64(seed*100+i))
			if err != nil {
				log.Fatal(err)
			}
			out[i] = bicriteria.GridClusterSpec{M: m, Perturb: perturb}
		}
		// The big cluster has a maintenance window in the middle.
		out[0].Reservations = []bicriteria.Reservation{
			{Name: "maintenance", Procs: 16, Start: horizon / 3, End: 2 * horizon / 3},
		}
		return out
	}

	policies := []bicriteria.GridRoutingPolicy{
		bicriteria.GridRoundRobin(),
		bicriteria.GridLeastBacklog(),
		bicriteria.GridLowerBoundAware(),
		bicriteria.GridMoldabilityAware(),
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "routing policy\tmakespan\tmean stretch\tp95 stretch\tutil\tjobs per cluster")
	for _, policy := range policies {
		report, err := bicriteria.RunGridContext(context.Background(), bicriteria.GridConfig{
			Clusters:     specs(),
			Routing:      policy,
			AdmitBacklog: 8,
		}, stream)
		if err != nil {
			log.Fatal(err)
		}
		met := report.Metrics
		spread := ""
		for i, pc := range met.PerCluster {
			if i > 0 {
				spread += "/"
			}
			spread += fmt.Sprintf("%d", pc.Jobs)
		}
		fmt.Fprintf(w, "%s\t%.1f\t%.2f\t%.2f\t%.0f%%\t%s\n",
			report.Policy, met.Makespan, met.MeanStretch, met.StretchP95, 100*met.Utilization, spread)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nEvery replay above is deterministic: rerunning this program (or running")
	fmt.Println("the federation sequentially with GridConfig.Sequential) reproduces the")
	fmt.Println("same decisions, schedules and metrics bit for bit.")
}
