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
	"bicriteria/internal/workload"
)

// AblationConfig drives the ablation studies A1-A3 (batch selection,
// compaction, lower bound): they compare variants of one design choice of
// the DEMT algorithm on a fixed workload setting.
type AblationConfig struct {
	// Workload selects the workload family (default Cirne).
	Workload workload.Kind
	// M is the machine size (default 64).
	M int
	// N is the number of tasks (default 80).
	N int
	// Runs is the number of random instances (default 10).
	Runs int
	// Seed makes the study deterministic.
	Seed int64
}

func (c AblationConfig) withDefaults() AblationConfig {
	if c.M == 0 {
		c.M = 64
	}
	if c.N == 0 {
		c.N = 80
	}
	if c.Runs == 0 {
		c.Runs = 10
	}
	return c
}

// AblationRow is the aggregated result of one variant.
type AblationRow struct {
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

// RunSelectionAblation compares the knapsack batch selection of the paper
// with the greedy weight-density selection (ablation A1). The context is
// passed to every DEMT run.
func RunSelectionAblation(ctx context.Context, cfg AblationConfig) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	variants := []core.SelectionMode{core.SelectionKnapsack, core.SelectionGreedy}
	rows := make([]AblationRow, 0, len(variants))
	for _, mode := range variants {
		row, err := runDEMTVariant(ctx, cfg, fmt.Sprintf("selection=%s", mode), &core.Options{Selection: mode})
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RunCompactionAblation compares the compaction modes (ablation A2). The
// context is passed to every DEMT run.
func RunCompactionAblation(ctx context.Context, cfg AblationConfig) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	variants := []core.CompactionMode{
		core.CompactionNone, core.CompactionEarliestStart, core.CompactionList, core.CompactionListShuffle,
	}
	rows := make([]AblationRow, 0, len(variants))
	for _, mode := range variants {
		row, err := runDEMTVariant(ctx, cfg, fmt.Sprintf("compaction=%s", mode), &core.Options{Compaction: mode})
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runDEMTVariant evaluates one DEMT configuration across the ablation runs.
func runDEMTVariant(ctx context.Context, cfg AblationConfig, name string, opts *core.Options) (AblationRow, error) {
	row := AblationRow{Variant: name}
	var minsum, cmax stats.RatioAggregator
	var total time.Duration
	for run := 0; run < cfg.Runs; run++ {
		inst, err := workload.Generate(workload.Config{Kind: cfg.Workload, M: cfg.M, N: cfg.N, Seed: instanceSeed(cfg.Seed, cfg.N, run)})
		if err != nil {
			return row, err
		}
		start := time.Now()
		res, err := core.ScheduleContext(ctx, inst, opts)
		if err != nil {
			return row, err
		}
		total += time.Since(start)
		if err := res.Schedule.Validate(inst, nil); err != nil {
			return row, fmt.Errorf("experiment: ablation %s produced an invalid schedule: %w", name, err)
		}
		if err := minsum.Add(res.Schedule.WeightedCompletion(inst), lowerbound.MinsumSquashedArea(inst)); err != nil {
			return row, err
		}
		if err := cmax.Add(res.Schedule.Makespan(), res.MakespanLowerBound); err != nil {
			return row, err
		}
	}
	row.MinsumRatio = minsum.Result()
	row.CmaxRatio = cmax.Result()
	row.AvgTime = total / time.Duration(cfg.Runs)
	return row, nil
}

// RunBoundAblation compares the squashed-area and LP-relaxation minsum
// lower bounds (ablation A3): average bound value (higher is tighter) and
// average computation time. The context is checked before every instance.
func RunBoundAblation(ctx context.Context, cfg AblationConfig) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	rows := []AblationRow{{Variant: "bound=squashed-area"}, {Variant: "bound=lp-relaxation"}, {Variant: "bound=max(both)"}}
	var squashedSum, lpSum, maxSum float64
	var squashedTime, lpTime time.Duration
	for run := 0; run < cfg.Runs; run++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("experiment: bound ablation aborted: %w", err)
		}
		inst, err := workload.Generate(workload.Config{Kind: cfg.Workload, M: cfg.M, N: cfg.N, Seed: instanceSeed(cfg.Seed, cfg.N, run)})
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

// FormatAblation renders ablation rows as a text table.
func FormatAblation(title string, cfg AblationConfig, rows []AblationRow) string {
	cfg = cfg.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "%s (workload %s, m=%d, n=%d, %d runs)\n", title, cfg.Workload, cfg.M, cfg.N, cfg.Runs)
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
