// Portfolio scenario: a 64-processor cluster receives a bursty Poisson
// stream of mixed moldable jobs. The example replays the stream three times
// on a one-shard grid — committing every batch to DEMT alone, to the best
// list baseline alone, and to the winner of the full portfolio — and shows
// how the portfolio tracks or beats the best single algorithm on every
// metric. A maintenance reservation and
// noisy runtimes make the replay realistic; reservations are validated
// against the realized trace.
//
// Run with:
//
//	go run ./examples/portfolio
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sort"
	"text/tabwriter"

	"bicriteria"
)

func main() {
	const (
		processors = 64
		jobs       = 120
		seed       = 11
	)
	arrivals, err := bicriteria.GenerateArrivals(bicriteria.ArrivalConfig{
		Workload:  bicriteria.WorkloadConfig{Kind: bicriteria.WorkloadMixed, M: processors, N: jobs, Seed: seed},
		Rate:      4,
		BurstSize: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	stream := bicriteria.ArrivalJobs(arrivals)
	horizon := arrivals[len(arrivals)-1].Submit
	fmt.Printf("portfolio scenario: %d jobs over [0, %.1f] on %d processors, bursts of 8\n\n",
		jobs, horizon, processors)

	// A 16-processor maintenance window in the middle of the stream.
	reservations := []bicriteria.Reservation{
		{Name: "maintenance", Procs: 16, Start: horizon / 3, End: 2 * horizon / 3},
	}

	perturb, err := bicriteria.UniformRuntimeNoise(0.15, seed)
	if err != nil {
		log.Fatal(err)
	}
	base := bicriteria.GridClusterSpec{
		M:            processors,
		Objective:    bicriteria.ClusterObjective{Kind: bicriteria.ClusterObjectiveCombined, Alpha: 0.5},
		Reservations: reservations,
		Perturb:      perturb,
	}

	runs := []struct {
		name      string
		portfolio []bicriteria.ClusterAlgorithm
	}{
		{"DEMT alone", []bicriteria.ClusterAlgorithm{bicriteria.ClusterDEMTAlgorithm(nil)}},
		{"best list baseline", bicriteria.ClusterPortfolio(nil)[3:4]}, // list-saf
		{"full portfolio", bicriteria.ClusterPortfolio(nil)},
	}

	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "commit rule\tbatches\tmakespan\tsum wC\tmax flow\tmean stretch\tutilization")
	var full *bicriteria.GridReport
	for _, r := range runs {
		spec := base
		spec.Portfolio = r.portfolio
		report, err := bicriteria.RunGridContext(context.Background(),
			bicriteria.GridConfig{Clusters: []bicriteria.GridClusterSpec{spec}}, stream)
		if err != nil {
			log.Fatalf("%s: %v", r.name, err)
		}
		met := report.Clusters[0].Metrics
		fmt.Fprintf(w, "%s\t%d\t%.2f\t%.0f\t%.2f\t%.2f\t%.0f%%\n",
			r.name, met.Batches, met.Makespan, met.WeightedCompletion, met.MaxFlow, met.MeanStretch, 100*met.Utilization)
		if r.name == "full portfolio" {
			full = report
		}
	}
	w.Flush()

	// The realized trace must never touch the reserved processors.
	shard := full.Clusters[0]
	if err := bicriteria.ValidateReservations(shard.Schedule, reservations, shard.Blocked); err != nil {
		log.Fatalf("reservation violated: %v", err)
	}
	fmt.Printf("\nmaintenance window respected by the realized trace (%d processors blocked)\n",
		reservations[0].Procs)

	names := make([]string, 0, len(shard.Metrics.Wins))
	for name := range shard.Metrics.Wins {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println("full-portfolio winner counts:")
	for _, name := range names {
		fmt.Printf("  %-10s %d\n", name, shard.Metrics.Wins[name])
	}
}
