// Workload comparison: a scaled-down version of the paper's Figures 3-6.
// For each of the four workload families, the example compares DEMT with
// the baselines on both criteria (normalized by the lower bounds) and
// prints one small table per family — the same qualitative picture as the
// paper: DEMT's minsum ratio is stable across families and close to the
// best, while Gang or Sequential degrade badly on some of them.
//
// Run with:
//
//	go run ./examples/workloads
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
		processors = 64
		tasks      = 60
		runs       = 3
	)
	kinds := []bicriteria.WorkloadKind{
		bicriteria.WorkloadWeaklyParallel,
		bicriteria.WorkloadHighlyParallel,
		bicriteria.WorkloadMixed,
		bicriteria.WorkloadCirne,
	}

	for _, kind := range kinds {
		res, err := bicriteria.RunExperiment(context.Background(), bicriteria.ExperimentConfig{
			Workload:   kind,
			M:          processors,
			TaskCounts: []int{tasks},
			Runs:       runs,
			Seed:       2024,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s workload (%d tasks on %d CPUs, %d runs) ===\n", kind, tasks, processors, runs)
		w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
		fmt.Fprintln(w, "algorithm\tminsum ratio\t(min..max)\tCmax ratio\t(min..max)")
		for _, series := range res.Series {
			p := series.Points[0]
			fmt.Fprintf(w, "%s\t%.2f\t(%.2f..%.2f)\t%.2f\t(%.2f..%.2f)\n",
				series.Algorithm,
				p.MinsumRatio.Mean, p.MinsumRatio.Min, p.MinsumRatio.Max,
				p.CmaxRatio.Mean, p.CmaxRatio.Min, p.CmaxRatio.Max)
		}
		w.Flush()
		fmt.Println()
	}
	fmt.Println("Compare with Figures 3-6 of the paper: DEMT stays around 2 on both")
	fmt.Println("criteria for every family, Gang collapses on weakly parallel tasks and")
	fmt.Println("Sequential on highly parallel ones.")
}
