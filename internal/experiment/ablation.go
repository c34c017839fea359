package experiment

import (
	"context"
	"fmt"
	"strings"
	"time"

	"bicriteria/internal/core"
	"bicriteria/internal/dualapprox"
	"bicriteria/internal/lowerbound"
	"bicriteria/internal/stats"
)

// RunAblation runs one of the ablation studies A1-A3 and returns its
// table. Each compares variants of one design choice of the DEMT algorithm
// on cfg's workload, machine size, runs and seed, at cfg's single task
// count: "selection" (knapsack vs greedy batch selection), "compaction"
// (the compaction modes) or "bound" (the minsum lower bounds). Zero fields
// take Run's defaults. The context is passed to every run.
func RunAblation(ctx context.Context, study string, cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	if len(cfg.TaskCounts) != 1 {
		return "", fmt.Errorf("experiment: an ablation runs at one task count, got %v", cfg.TaskCounts)
	}
	var (
		rows  []ablationRow
		title string
		err   error
	)
	switch study {
	case "selection":
		title = "Ablation A1: knapsack vs greedy batch selection"
		rows, err = runSelectionAblation(ctx, cfg)
	case "compaction":
		title = "Ablation A2: compaction modes"
		rows, err = runCompactionAblation(ctx, cfg)
	case "bound":
		title = "Ablation A3: minsum lower bounds"
		rows, err = runBoundAblation(ctx, cfg)
	default:
		return "", fmt.Errorf("experiment: unknown ablation %q (want selection, compaction or bound)", study)
	}
	if err != nil {
		return "", err
	}
	return formatAblation(title, cfg, rows), nil
}

// ablationRow is the aggregated result of one variant.
type ablationRow struct {
	// Variant names the design-choice variant.
	Variant string
	// MinsumRatio and CmaxRatio aggregate the criteria against the
	// squashed-area and dual-approximation bounds.
	MinsumRatio stats.Ratio
	CmaxRatio   stats.Ratio
	// AvgTime is the average wall-clock time of the variant per instance.
	AvgTime time.Duration
	// Value is a variant-specific scalar (used by the lower-bound ablation
	// to report the average bound value).
	Value float64
}

// runSelectionAblation compares the knapsack batch selection of the paper
// with the greedy weight-density selection (ablation A1).
func runSelectionAblation(ctx context.Context, cfg Config) ([]ablationRow, error) {
	variants := []core.SelectionMode{core.SelectionKnapsack, core.SelectionGreedy}
	rows := make([]ablationRow, 0, len(variants))
	for _, mode := range variants {
		row, err := variantRow(ctx, cfg, fmt.Sprintf("selection=%s", mode), core.Options{Selection: mode})
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runCompactionAblation compares the compaction modes (ablation A2).
func runCompactionAblation(ctx context.Context, cfg Config) ([]ablationRow, error) {
	variants := []core.CompactionMode{
		core.CompactionNone, core.CompactionEarliestStart, core.CompactionList, core.CompactionListShuffle,
	}
	rows := make([]ablationRow, 0, len(variants))
	for _, mode := range variants {
		row, err := variantRow(ctx, cfg, fmt.Sprintf("compaction=%s", mode), core.Options{Compaction: mode})
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// variantRow runs the experiment on DEMT alone, with one variant's
// options and every schedule validated, and reads the row from its single
// point. The time is Run's scheduler time, which leaves out the dual
// approximation the runs share.
func variantRow(ctx context.Context, cfg Config, name string, opts core.Options) (ablationRow, error) {
	cfg.Algorithms = []Algorithm{AlgDEMT}
	cfg.DEMT = &opts
	cfg.ValidateSchedules = true
	res, err := Run(ctx, cfg)
	if err != nil {
		return ablationRow{}, err
	}
	p := res.Series[0].Points[0]
	return ablationRow{Variant: name, MinsumRatio: p.MinsumRatio, CmaxRatio: p.CmaxRatio, AvgTime: p.SchedulerTime}, nil
}

// runBoundAblation compares the squashed-area and LP-relaxation minsum
// lower bounds (ablation A3) on Run's instances: average bound value
// (higher is tighter) and average computation time. The context is checked
// before every instance.
func runBoundAblation(ctx context.Context, cfg Config) ([]ablationRow, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	n := cfg.TaskCounts[0]
	rows := []ablationRow{{Variant: "bound=squashed-area"}, {Variant: "bound=lp-relaxation"}, {Variant: "bound=max(both)"}}
	var squashedSum, lpSum, maxSum float64
	var squashedTime, lpTime time.Duration
	for run := 0; run < cfg.Runs; run++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiment: bound ablation aborted: %w", err)
		}
		inst, err := cfg.instance(n, run)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		sq := lowerbound.MinsumSquashedArea(inst)
		squashedTime += time.Since(start)

		da, err := dualapprox.TwoShelf(inst)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		b, err := lowerbound.MinsumLP(inst, &lowerbound.MinsumOptions{CmaxEstimate: da.Estimate})
		if err != nil {
			return nil, err
		}
		lpTime += time.Since(start)

		squashedSum += sq
		lpSum += b.LPValue
		maxSum += b.Value
	}
	runs := float64(cfg.Runs)
	rows[0].Value = squashedSum / runs
	rows[0].AvgTime = squashedTime / time.Duration(cfg.Runs)
	rows[1].Value = lpSum / runs
	rows[1].AvgTime = lpTime / time.Duration(cfg.Runs)
	rows[2].Value = maxSum / runs
	rows[2].AvgTime = (squashedTime + lpTime) / time.Duration(cfg.Runs)
	return rows, nil
}

// formatAblation renders ablation rows as a text table.
func formatAblation(title string, cfg Config, rows []ablationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (workload %s, m=%d, n=%d, %d runs)\n", title, cfg.Workload, cfg.M, cfg.TaskCounts[0], cfg.Runs)
	fmt.Fprintf(&b, "%-28s %14s %14s %14s %14s\n", "variant", "minsum ratio", "cmax ratio", "value", "avg time")
	for _, row := range rows {
		minsum, cmax, value := "-", "-", "-"
		if row.MinsumRatio.Count > 0 {
			minsum = fmt.Sprintf("%.3f", row.MinsumRatio.Mean)
		}
		if row.CmaxRatio.Count > 0 {
			cmax = fmt.Sprintf("%.3f", row.CmaxRatio.Mean)
		}
		if row.Value != 0 {
			value = fmt.Sprintf("%.1f", row.Value)
		}
		fmt.Fprintf(&b, "%-28s %14s %14s %14s %14s\n", row.Variant, minsum, cmax, value, row.AvgTime.Round(10*time.Microsecond))
	}
	return b.String()
}
