// On-line scenario: jobs are submitted to the front-end queue over time (as
// in Figure 1 of the paper) and scheduled with the batch framework of
// section 2.2 — jobs arriving during the current batch wait for the next
// one, and every batch is scheduled off-line with DEMT. The example prints
// the batch structure, the flow-time statistics, and contrasts the result
// with a clairvoyant off-line run of the same job set.
//
// Run with:
//
//	go run ./examples/online
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"bicriteria"
)

func main() {
	const (
		processors = 32
		jobCount   = 40
	)

	// Build an arrival stream: a Cirne-like workload whose jobs are
	// released by a bursty process (two bursts plus background arrivals).
	inst, err := bicriteria.GenerateWorkload(bicriteria.WorkloadConfig{
		Kind: bicriteria.WorkloadCirne,
		M:    processors,
		N:    jobCount,
		Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	jobs := make([]bicriteria.OnlineJob, inst.N())
	for i := range inst.Tasks {
		release := rng.Float64() * 20
		if i%3 == 0 {
			release = 0 // first burst at time 0
		} else if i%3 == 1 {
			release = 15 + rng.Float64()*5 // second burst around t=15
		}
		jobs[i] = bicriteria.OnlineJob{Task: inst.Tasks[i], Release: release}
	}

	// A one-shard grid whose cluster fires a batch whenever it is idle,
	// with DEMT as the only portfolio member and exact execution, is the
	// batch framework of section 2.2.
	ctx := context.Background()
	rep, err := bicriteria.RunGridContext(ctx, bicriteria.GridConfig{
		Clusters: []bicriteria.GridClusterSpec{{
			M:         processors,
			Portfolio: []bicriteria.ClusterAlgorithm{bicriteria.ClusterDEMTAlgorithm(nil)},
			Policy:    bicriteria.BatchOnIdle(),
		}},
	}, jobs)
	if err != nil {
		log.Fatal(err)
	}
	res := rep.Clusters[0]

	fmt.Printf("On-line batch scheduling of %d jobs on %d CPUs with DEMT per batch\n\n", jobCount, processors)
	for _, b := range res.Batches {
		fmt.Printf("  batch %d: starts at %6.2f, %2d jobs, makespan %6.2f\n",
			b.Index, b.FireTime, len(b.Jobs), b.PlannedMakespan)
	}
	fmt.Printf("\n  on-line makespan      : %.2f\n", res.Metrics.Makespan)
	fmt.Printf("  maximum flow time     : %.2f\n", res.Metrics.MaxFlow)
	fmt.Printf("  weighted completion   : %.0f\n", res.Metrics.WeightedCompletion)

	// Clairvoyant comparison: if all jobs had been known (and available) at
	// time 0, a single off-line DEMT run would achieve:
	offline, err := bicriteria.DEMT(ctx, inst, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nClairvoyant off-line DEMT on the same job set (all released at 0):\n")
	fmt.Printf("  makespan %.2f, weighted completion %.0f\n",
		offline.Schedule.Makespan(), offline.Schedule.WeightedCompletion(inst))
	fmt.Printf("  (the on-line batch framework pays at most a factor ~2 on the makespan)\n")
}
