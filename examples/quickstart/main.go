// Quickstart: generate a small moldable workload, schedule it with the DEMT
// bi-criteria algorithm, compare both criteria with their lower bounds and
// print a Gantt chart.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"bicriteria"
)

func main() {
	// A small cluster and a Cirne-Berman style workload (the most realistic
	// model of the paper's evaluation).
	inst, err := bicriteria.GenerateWorkload(bicriteria.WorkloadConfig{
		Kind: bicriteria.WorkloadCirne,
		M:    16,
		N:    20,
		Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Run the paper's algorithm with its default options.
	res, err := bicriteria.DEMT(context.Background(), inst, nil)
	if err != nil {
		log.Fatal(err)
	}

	metrics := res.Schedule.ComputeMetrics(inst)
	cmaxLB := bicriteria.MakespanLowerBound(inst)
	minsumLB, err := bicriteria.MinsumLowerBoundLP(inst, nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("DEMT on %d tasks / %d processors\n", inst.N(), inst.M)
	fmt.Printf("  approximate C*max used for the batches: %.2f (K=%d, %d batches)\n",
		res.CmaxEstimate, res.K, len(res.Batches))
	fmt.Printf("  makespan   : %.2f   (lower bound %.2f, ratio %.2f)\n",
		metrics.Makespan, cmaxLB, metrics.Makespan/cmaxLB)
	fmt.Printf("  sum w_i C_i: %.2f   (LP lower bound %.2f, ratio %.2f)\n",
		metrics.WeightedCompletion, minsumLB.Value, metrics.WeightedCompletion/minsumLB.Value)
	fmt.Printf("  utilization: %.0f%%\n\n", 100*metrics.Utilization)

	fmt.Println("Batch structure (before compaction):")
	for _, b := range res.Batches {
		fmt.Printf("  batch %d: window [%.2f, %.2f), %d tasks, %d processors, weight %.1f\n",
			b.Index, b.Start, b.End, len(b.TaskIDs), b.UsedProcessors, b.SelectedWeight)
	}
	fmt.Println()
	fmt.Print(res.Schedule.Gantt(96))
}
