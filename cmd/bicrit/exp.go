package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"

	"bicriteria/internal/experiment"
	"bicriteria/internal/workload"
)

// expCmd runs the paper's experiments (section 4): for one of the figures
// 3-7 or for a custom workload/size sweep, it compares DEMT against the
// baselines, normalizes by the lower bounds and prints the aggregated
// ratios as text tables (and optionally a CSV file ready for
// re-plotting). -ablation runs an ablation study instead.
func expCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bicrit exp", flag.ContinueOnError)
	figure := fs.Int("figure", 0, "paper figure to reproduce (3-7); 0 means use -workload")
	kindFlag := fs.String("workload", "cirne", "workload kind when -figure is 0")
	m := fs.Int("m", 200, "number of processors")
	runs := fs.Int("runs", 10, "number of runs per point (the paper uses 40)")
	seed := fs.Int64("seed", 1, "base random seed")
	tasksFlag := fs.String("tasks", "", "comma-separated task counts (default: the paper's sweep 25..400)")
	useLP := fs.Bool("lp", false, "use the LP-relaxation minsum lower bound (the paper's bound; slower)")
	csvPath := fs.String("csv", "", "also write the aggregated series to this CSV file")
	algosFlag := fs.String("algorithms", "", "comma-separated algorithms to compare, replacing the figure's own list (default: all six; figure 7: demt)")
	ablation := fs.String("ablation", "", "run an ablation study instead of a figure: selection, compaction or bound")
	ablationN := fs.Int("ablation-n", 80, "number of tasks used by ablation studies")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The experiment library replaces a zero count with its default, so
	// a zero here would be echoed in the header and then not used.
	if *runs < 1 {
		return fmt.Errorf("-runs must be at least 1, got %d", *runs)
	}
	if *m < 1 {
		return fmt.Errorf("-m must be at least 1, got %d", *m)
	}

	ctx := context.Background()
	if *ablation != "" {
		if *ablationN < 1 {
			return fmt.Errorf("-ablation-n must be at least 1, got %d", *ablationN)
		}
		kind, err := workload.ParseKind(*kindFlag)
		if err != nil {
			return err
		}
		table, err := experiment.RunAblation(ctx, *ablation, experiment.Config{
			Workload: kind, M: *m, TaskCounts: []int{*ablationN}, Runs: *runs, Seed: *seed,
		})
		if err != nil {
			return err
		}
		fmt.Fprint(out, table)
		return nil
	}

	var cfg experiment.Config
	if *figure != 0 {
		var err error
		cfg, err = experiment.FigureConfig(*figure, *runs, *seed, *useLP)
		if err != nil {
			return err
		}
	} else {
		kind, err := workload.ParseKind(*kindFlag)
		if err != nil {
			return err
		}
		cfg = experiment.Config{Workload: kind, Runs: *runs, Seed: *seed, UseLPBound: *useLP}
	}
	cfg.M = *m
	if *tasksFlag != "" {
		counts, err := parseSizes("tasks", *tasksFlag)
		if err != nil {
			return err
		}
		cfg.TaskCounts = counts
	}
	if *algosFlag != "" {
		cfg.Algorithms = nil
		for _, name := range strings.Split(*algosFlag, ",") {
			alg, err := experiment.ParseAlgorithm(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			if slices.Contains(cfg.Algorithms, alg) {
				return fmt.Errorf("-algorithms lists %q twice", alg)
			}
			cfg.Algorithms = append(cfg.Algorithms, alg)
		}
	}

	fmt.Fprintf(out, "Running experiment: workload=%s m=%d runs=%d tasks=%v lp-bound=%v\n\n",
		cfg.Workload, cfg.M, cfg.Runs, cfg.TaskCounts, cfg.UseLPBound)
	res, err := experiment.Run(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Fprint(out, experiment.FormatTable(res))
	fmt.Fprintf(out, "total experiment time: %s\n", res.Elapsed.Round(1_000_000))

	if *csvPath != "" {
		if err := writeFile(*csvPath, func(w io.Writer) error {
			return experiment.WriteCSV(w, res)
		}); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *csvPath)
	}
	return nil
}
