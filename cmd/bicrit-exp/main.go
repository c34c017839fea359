// Command bicrit-exp runs the paper's experiments (section 4): for one of
// the figures 3-7 or for a custom workload/size sweep, it compares DEMT
// against the baselines, normalizes by the lower bounds and prints the
// aggregated ratios as text tables (and optionally CSV files ready for
// re-plotting).
//
// Reproducing Figure 6 at the paper's full scale (200 processors, 40 runs
// per point, LP lower bound):
//
//	bicrit-exp -figure 6 -runs 40 -lp -csv figure6.csv
//
// A quick smoke run:
//
//	bicrit-exp -figure 4 -runs 3 -tasks 25,50,100
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"bicriteria/internal/experiment"
	"bicriteria/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bicrit-exp:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bicrit-exp", flag.ContinueOnError)
	figure := fs.Int("figure", 0, "paper figure to reproduce (3-7); 0 means use -workload")
	kindFlag := fs.String("workload", "cirne", "workload kind when -figure is 0")
	m := fs.Int("m", 200, "number of processors")
	runs := fs.Int("runs", 10, "number of runs per point (the paper uses 40)")
	seed := fs.Int64("seed", 1, "base random seed")
	tasksFlag := fs.String("tasks", "", "comma-separated task counts (default: the paper's sweep 25..400)")
	useLP := fs.Bool("lp", false, "use the LP-relaxation minsum lower bound (the paper's bound; slower)")
	csvPath := fs.String("csv", "", "also write the aggregated series to this CSV file")
	algosFlag := fs.String("algorithms", "", "comma-separated algorithms (default: all six)")
	ablation := fs.String("ablation", "", "run an ablation study instead of a figure: selection, compaction or bound")
	ablationN := fs.Int("ablation-n", 80, "number of tasks used by ablation studies")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ctx := context.Background()
	if *ablation != "" {
		kind, err := workload.ParseKind(*kindFlag)
		if err != nil {
			return err
		}
		return runAblation(ctx, out, *ablation, experiment.AblationConfig{
			Workload: kind, M: *m, N: *ablationN, Runs: *runs, Seed: *seed,
		})
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
		counts, err := parseInts(*tasksFlag)
		if err != nil {
			return err
		}
		cfg.TaskCounts = counts
	}
	if *algosFlag != "" {
		for _, name := range strings.Split(*algosFlag, ",") {
			alg, err := experiment.ParseAlgorithm(strings.TrimSpace(name))
			if err != nil {
				return err
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
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := experiment.WriteCSV(f, res); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *csvPath)
	}
	return nil
}

// runAblation dispatches one of the ablation studies of internal/experiment
// (selection, compaction or bound).
func runAblation(ctx context.Context, out io.Writer, kind string, cfg experiment.AblationConfig) error {
	var (
		rows  []experiment.AblationRow
		title string
		err   error
	)
	switch kind {
	case "selection":
		title = "Ablation A1: knapsack vs greedy batch selection"
		rows, err = experiment.RunSelectionAblation(ctx, cfg)
	case "compaction":
		title = "Ablation A2: compaction modes"
		rows, err = experiment.RunCompactionAblation(ctx, cfg)
	case "bound":
		title = "Ablation A3: minsum lower bounds"
		rows, err = experiment.RunBoundAblation(ctx, cfg)
	default:
		return fmt.Errorf("unknown ablation %q (want selection, compaction or bound)", kind)
	}
	if err != nil {
		return err
	}
	fmt.Fprint(out, experiment.FormatAblation(title, cfg, rows))
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("invalid task count %q", part)
		}
		if v < 1 {
			return nil, fmt.Errorf("task counts must be positive, got %d", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no task counts given")
	}
	return out, nil
}
