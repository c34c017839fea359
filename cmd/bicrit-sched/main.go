// Command bicrit-sched schedules a workload file with the DEMT bi-criteria
// algorithm or one of the paper's baselines and prints the resulting
// metrics, the comparison with the lower bounds, and optionally a Gantt
// chart or the full assignment list.
//
// Usage:
//
//	bicrit-gen -kind mixed -m 32 -n 40 -o w.json
//	bicrit-sched -i w.json -algo demt -gantt
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"bicriteria"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bicrit-sched:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bicrit-sched", flag.ContinueOnError)
	input := fs.String("i", "", "input workload file (JSON, required)")
	algo := fs.String("algo", "demt", "algorithm: demt, gang, sequential, list, lptf or saf")
	gantt := fs.Bool("gantt", false, "print an ASCII Gantt chart")
	ganttWidth := fs.Int("gantt-width", 100, "width of the Gantt chart in characters")
	listing := fs.Bool("assignments", false, "print the full assignment list")
	shuffles := fs.Int("shuffles", 8, "number of shuffled orders tried by the DEMT compaction")
	seed := fs.Int64("seed", 1, "random seed of the DEMT shuffles")
	lpBound := fs.Bool("lp", false, "compute the LP minsum lower bound (slower) instead of the fast bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *input == "" {
		return fmt.Errorf("missing -i workload file")
	}
	inst, err := bicriteria.LoadInstance(*input)
	if err != nil {
		return err
	}

	ctx := context.Background()
	var sched *bicriteria.Schedule
	switch *algo {
	case "demt":
		res, err := bicriteria.DEMT(ctx, inst, &bicriteria.DEMTOptions{Shuffles: *shuffles, Seed: *seed})
		if err != nil {
			return err
		}
		sched = res.Schedule
		fmt.Fprintf(out, "DEMT: C*max estimate %.3f, %d batches, K=%d\n", res.CmaxEstimate, len(res.Batches), res.K)
	case "gang":
		sched, err = bicriteria.Gang(ctx, inst)
	case "sequential":
		sched, err = bicriteria.SequentialLPT(ctx, inst)
	case "list":
		sched, err = bicriteria.ListScheduling(ctx, inst, bicriteria.ListShelfOrder)
	case "lptf":
		sched, err = bicriteria.ListScheduling(ctx, inst, bicriteria.ListWeightedLPT)
	case "saf":
		sched, err = bicriteria.ListScheduling(ctx, inst, bicriteria.ListSmallestAreaFirst)
	default:
		return fmt.Errorf("unknown algorithm %q", *algo)
	}
	if err != nil {
		return err
	}
	if err := sched.Validate(inst, nil); err != nil {
		return fmt.Errorf("internal error, produced an invalid schedule: %w", err)
	}

	metrics := sched.ComputeMetrics(inst)
	cmaxLB := bicriteria.MakespanLowerBound(inst)
	minsumLB := bicriteria.MinsumLowerBoundFast(inst)
	if *lpBound {
		b, err := bicriteria.MinsumLowerBoundLP(inst, nil)
		if err != nil {
			return err
		}
		minsumLB = b.Value
	}

	fmt.Fprintf(out, "algorithm          : %s\n", *algo)
	fmt.Fprintf(out, "tasks / processors : %d / %d\n", inst.N(), inst.M)
	fmt.Fprintf(out, "makespan           : %.3f (lower bound %.3f, ratio %.3f)\n", metrics.Makespan, cmaxLB, metrics.Makespan/cmaxLB)
	fmt.Fprintf(out, "sum w_i C_i        : %.3f (lower bound %.3f, ratio %.3f)\n", metrics.WeightedCompletion, minsumLB, metrics.WeightedCompletion/minsumLB)
	fmt.Fprintf(out, "sum C_i            : %.3f\n", metrics.SumCompletion)
	fmt.Fprintf(out, "utilization        : %.1f%%\n", 100*metrics.Utilization)
	fmt.Fprintf(out, "idle time          : %.3f\n", metrics.IdleTime)

	if *gantt {
		fmt.Fprint(out, sched.Gantt(*ganttWidth))
	}
	if *listing {
		fmt.Fprint(out, sched.String())
	}
	return nil
}
