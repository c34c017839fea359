package experiment

import (
	"strings"
	"testing"

	"bicriteria/internal/workload"
)

func ablationTestConfig() Config {
	return Config{Workload: workload.Cirne, M: 12, TaskCounts: []int{12}, Runs: 2, Seed: 3}
}

func TestRunSelectionAblation(t *testing.T) {
	rows, err := runSelectionAblation(t.Context(), ablationTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("expected 2 variants, got %d", len(rows))
	}
	for _, row := range rows {
		if row.MinsumRatio.Mean < 1-1e-6 || row.CmaxRatio.Mean < 1-1e-6 {
			t.Fatalf("%s: ratios below 1: %+v", row.Variant, row)
		}
		if row.AvgTime <= 0 {
			t.Fatalf("%s: missing timing", row.Variant)
		}
	}
	out := formatAblation("A1 selection", ablationTestConfig(), rows)
	if want := "A1 selection (workload cirne, m=12, n=12, 2 runs)\n"; !strings.HasPrefix(out, want) {
		t.Fatalf("header drifted, want %q:\n%s", want, out)
	}
	if !strings.Contains(out, "selection=knapsack") || !strings.Contains(out, "selection=greedy") {
		t.Fatalf("table missing variants:\n%s", out)
	}
}

func TestRunCompactionAblation(t *testing.T) {
	rows, err := runCompactionAblation(t.Context(), ablationTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("expected 4 variants, got %d", len(rows))
	}
	// The list-based compactions must not be worse than no compaction on
	// the makespan (they re-pack the same allotments greedily).
	var none, list float64
	for _, row := range rows {
		switch row.Variant {
		case "compaction=none":
			none = row.CmaxRatio.Mean
		case "compaction=list":
			list = row.CmaxRatio.Mean
		}
	}
	if list > none+1e-6 {
		t.Fatalf("list compaction (%.3f) should not be worse than none (%.3f)", list, none)
	}
}

func TestRunBoundAblation(t *testing.T) {
	rows, err := runBoundAblation(t.Context(), ablationTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("expected 3 rows, got %d", len(rows))
	}
	var squashed, lp, both float64
	for _, row := range rows {
		switch row.Variant {
		case "bound=squashed-area":
			squashed = row.Value
		case "bound=lp-relaxation":
			lp = row.Value
		case "bound=max(both)":
			both = row.Value
		}
	}
	if squashed <= 0 || lp <= 0 || both <= 0 {
		t.Fatalf("bound values missing: %+v", rows)
	}
	// The combined bound dominates each individual bound on average.
	if both < squashed-1e-6 || both < lp-1e-6 {
		t.Fatalf("max bound (%.2f) below components (%.2f, %.2f)", both, squashed, lp)
	}
	out := formatAblation("A3 bounds", ablationTestConfig(), rows)
	if !strings.Contains(out, "bound=max(both)") {
		t.Fatalf("table missing rows:\n%s", out)
	}
}

// TestAblationRejectsBadConfig holds every study to Run's checks: fewer
// than one run fails (the bound study, which does not call Run, checks it
// itself), and so do two task counts and an unknown study.
func TestAblationRejectsBadConfig(t *testing.T) {
	for _, study := range []string{"selection", "compaction", "bound"} {
		cfg := ablationTestConfig()
		cfg.Runs = -1
		if _, err := RunAblation(t.Context(), study, cfg); err == nil || !strings.Contains(err.Error(), "Runs must be >= 1") {
			t.Errorf("%s with Runs -1: err = %v", study, err)
		}
		cfg = ablationTestConfig()
		cfg.TaskCounts = []int{8, 12}
		if _, err := RunAblation(t.Context(), study, cfg); err == nil {
			t.Errorf("%s with two task counts accepted", study)
		}
	}
	if _, err := RunAblation(t.Context(), "frobnicate", ablationTestConfig()); err == nil {
		t.Error("unknown study accepted")
	}
}
