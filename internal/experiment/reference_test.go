package experiment

import (
	"context"
	"testing"

	"bicriteria/internal/core"
	"bicriteria/internal/lowerbound"
	"bicriteria/internal/stats"
	"bicriteria/internal/workload"
)

// referenceDEMTVariant is the private instance loop the selection and
// compaction ablations ran before they went through Run: on each instance
// DEMT computes its own dual approximation, the makespan is judged against
// lowerbound.Makespan and the minsum against the squashed area.
func referenceDEMTVariant(ctx context.Context, cfg Config, opts *core.Options) (minsum, cmax stats.Ratio, err error) {
	n := cfg.TaskCounts[0]
	var aggMinsum, aggCmax stats.RatioAggregator
	for run := 0; run < cfg.Runs; run++ {
		inst, err := cfg.instance(n, run)
		if err != nil {
			return minsum, cmax, err
		}
		res, err := core.ScheduleContext(ctx, inst, opts)
		if err != nil {
			return minsum, cmax, err
		}
		if err := res.Schedule.Validate(inst, nil); err != nil {
			return minsum, cmax, err
		}
		if err := aggMinsum.Add(res.Schedule.WeightedCompletion(inst), lowerbound.MinsumSquashedArea(inst)); err != nil {
			return minsum, cmax, err
		}
		if err := aggCmax.Add(res.Schedule.Makespan(), lowerbound.Makespan(inst)); err != nil {
			return minsum, cmax, err
		}
	}
	return aggMinsum.Result(), aggCmax.Result(), nil
}

// TestAblationMatchesReference holds every selection and compaction row,
// which the ablations now read from Run, equal to the reference loop's
// ratios on all four workload families.
func TestAblationMatchesReference(t *testing.T) {
	for _, kind := range []workload.Kind{workload.WeaklyParallel, workload.HighlyParallel, workload.Mixed, workload.Cirne} {
		cfg := Config{Workload: kind, M: 64, TaskCounts: []int{80}, Runs: 6, Seed: 3}
		selection, err := runSelectionAblation(t.Context(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		compaction, err := runCompactionAblation(t.Context(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		rows := append(selection, compaction...)
		variants := []core.Options{
			{Selection: core.SelectionKnapsack},
			{Selection: core.SelectionGreedy},
			{Compaction: core.CompactionNone},
			{Compaction: core.CompactionEarliestStart},
			{Compaction: core.CompactionList},
			{Compaction: core.CompactionListShuffle},
		}
		if len(rows) != len(variants) {
			t.Fatalf("%s: %d rows, want %d", kind, len(rows), len(variants))
		}
		for i, opts := range variants {
			wantMinsum, wantCmax, err := referenceDEMTVariant(t.Context(), cfg, &opts)
			if err != nil {
				t.Fatalf("%s/%s: reference: %v", kind, rows[i].Variant, err)
			}
			if rows[i].MinsumRatio != wantMinsum || rows[i].CmaxRatio != wantCmax {
				t.Fatalf("%s/%s: ablation gives minsum %+v cmax %+v, reference %+v %+v",
					kind, rows[i].Variant, rows[i].MinsumRatio, rows[i].CmaxRatio, wantMinsum, wantCmax)
			}
		}
	}
}
