// Cluster scenario: an Icluster2-like machine (104 bi-processor nodes, i.e.
// 208 CPUs — the platform on which the paper's algorithm was deployed)
// receives a mixed batch of jobs. The example compares the DEMT bi-criteria
// algorithm against every baseline of the paper on both criteria, then
// replays the DEMT schedule through the discrete-event simulator with noisy
// execution times to see how robust the plan is to inexact user estimates.
//
// Run with:
//
//	go run ./examples/cluster
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"text/tabwriter"

	"bicriteria"
)

func main() {
	const processors = 208 // 104 bi-processor nodes
	inst, err := bicriteria.GenerateWorkload(bicriteria.WorkloadConfig{
		Kind: bicriteria.WorkloadMixed,
		M:    processors,
		N:    150,
		Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}

	cmaxLB := bicriteria.MakespanLowerBound(inst)
	minsumLB := bicriteria.MinsumLowerBoundFast(inst)

	type entry struct {
		name string
		run  func() (*bicriteria.Schedule, error)
	}
	ctx := context.Background()
	var demtResult *bicriteria.DEMTResult
	algorithms := []entry{
		{"DEMT (bi-criteria)", func() (*bicriteria.Schedule, error) {
			res, err := bicriteria.DEMT(ctx, inst, nil)
			if err != nil {
				return nil, err
			}
			demtResult = res
			return res.Schedule, nil
		}},
		{"Gang", func() (*bicriteria.Schedule, error) { return bicriteria.Gang(ctx, inst) }},
		{"Sequential LPT", func() (*bicriteria.Schedule, error) { return bicriteria.SequentialLPT(ctx, inst) }},
		{"List (shelf order)", func() (*bicriteria.Schedule, error) {
			return bicriteria.ListScheduling(ctx, inst, bicriteria.ListShelfOrder)
		}},
		{"List (weighted LPT)", func() (*bicriteria.Schedule, error) {
			return bicriteria.ListScheduling(ctx, inst, bicriteria.ListWeightedLPT)
		}},
		{"List (smallest area)", func() (*bicriteria.Schedule, error) {
			return bicriteria.ListScheduling(ctx, inst, bicriteria.ListSmallestAreaFirst)
		}},
	}

	fmt.Printf("Icluster2-like scenario: %d CPUs, %d moldable jobs (mixed workload)\n", processors, inst.N())
	fmt.Printf("lower bounds: makespan %.2f, weighted minsum %.2f\n\n", cmaxLB, minsumLB)

	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "algorithm\tmakespan\tCmax ratio\tsum wC\tminsum ratio\tutilization")
	for _, a := range algorithms {
		s, err := a.run()
		if err != nil {
			log.Fatalf("%s: %v", a.name, err)
		}
		if err := s.Validate(inst, nil); err != nil {
			log.Fatalf("%s produced an invalid schedule: %v", a.name, err)
		}
		m := s.ComputeMetrics(inst)
		fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%.0f\t%.2f\t%.0f%%\n",
			a.name, m.Makespan, m.Makespan/cmaxLB, m.WeightedCompletion, m.WeightedCompletion/minsumLB, 100*m.Utilization)
	}
	w.Flush()

	// Robustness: replay the DEMT plan with actual runtimes up to +-30% off
	// the user estimates.
	rng := rand.New(rand.NewSource(3))
	simRes, err := bicriteria.Simulate(inst, demtResult.Schedule, &bicriteria.SimulationOptions{
		Perturb: func(taskID int, planned float64) float64 {
			return planned * (0.7 + 0.6*rng.Float64())
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	planned := demtResult.Schedule.ComputeMetrics(inst)
	fmt.Printf("\nReplaying the DEMT plan with noisy runtimes (+-30%%):\n")
	fmt.Printf("  planned makespan %.2f -> realized %.2f (%d tasks delayed)\n",
		planned.Makespan, simRes.Makespan, simRes.Delayed)
	fmt.Printf("  planned sum wC   %.0f -> realized %.0f\n",
		planned.WeightedCompletion, simRes.WeightedCompletion)
	fmt.Printf("  realized utilization %.0f%%\n", 100*simRes.Utilization(processors))
}
