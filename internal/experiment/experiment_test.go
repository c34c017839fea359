package experiment

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"bicriteria/internal/workload"
)

// smallConfig keeps unit tests fast: a small machine, few tasks, few runs.
func smallConfig(kind workload.Kind) Config {
	return Config{
		Workload:          kind,
		M:                 16,
		TaskCounts:        []int{8, 16},
		Runs:              3,
		Seed:              42,
		ValidateSchedules: true,
	}
}

func TestRunAllAlgorithmsSmall(t *testing.T) {
	res, err := Run(t.Context(), smallConfig(workload.HighlyParallel))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != len(algorithms()) {
		t.Fatalf("expected %d series, got %d", len(algorithms()), len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Points) != 2 {
			t.Fatalf("%s: expected 2 points, got %d", s.Algorithm, len(s.Points))
		}
		for _, p := range s.Points {
			if p.CmaxRatio.Mean < 1-1e-6 {
				t.Fatalf("%s n=%d: makespan ratio %.3f below 1 (bound not a lower bound?)", s.Algorithm, p.N, p.CmaxRatio.Mean)
			}
			if p.MinsumRatio.Mean < 1-1e-6 {
				t.Fatalf("%s n=%d: minsum ratio %.3f below 1", s.Algorithm, p.N, p.MinsumRatio.Mean)
			}
			if p.CmaxRatio.Count != 3 || p.MinsumRatio.Count != 3 {
				t.Fatalf("%s n=%d: wrong observation count", s.Algorithm, p.N)
			}
			if p.CmaxRatio.Min > p.CmaxRatio.Mean+1e-9 || p.CmaxRatio.Max < p.CmaxRatio.Mean-1e-9 {
				t.Fatalf("%s n=%d: ratio-of-sums outside [min,max]", s.Algorithm, p.N)
			}
		}
	}
	if res.Elapsed <= 0 {
		t.Fatalf("elapsed time not recorded")
	}
}

func TestRunWithLPBound(t *testing.T) {
	cfg := smallConfig(workload.Mixed)
	cfg.UseLPBound = true
	cfg.TaskCounts = []int{6}
	cfg.Runs = 2
	cfg.Algorithms = []Algorithm{AlgDEMT, AlgListSAF}
	res, err := Run(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		for _, p := range s.Points {
			if p.MinsumRatio.Mean < 1-1e-6 {
				t.Fatalf("%s: LP-bound ratio below 1: %.3f", s.Algorithm, p.MinsumRatio.Mean)
			}
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := smallConfig(workload.Cirne)
	cfg.Algorithms = []Algorithm{AlgDEMT}
	a, err := Run(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for pi := range a.Series[0].Points {
		pa, pb := a.Series[0].Points[pi], b.Series[0].Points[pi]
		if pa.CmaxRatio.Mean != pb.CmaxRatio.Mean || pa.MinsumRatio.Mean != pb.MinsumRatio.Mean {
			t.Fatalf("same seed must give same ratios")
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	cfg := smallConfig(workload.Mixed)
	cfg.Runs = -1
	if _, err := Run(t.Context(), cfg); err == nil {
		t.Fatalf("negative runs must fail")
	}
	cfg = smallConfig(workload.Mixed)
	cfg.Algorithms = []Algorithm{"nonsense"}
	if _, err := Run(t.Context(), cfg); err == nil {
		t.Fatalf("unknown algorithm must fail")
	}
}

// TestRunRejectsRepeatedAlgorithm pins that an algorithm listed twice is
// an error naming it: its copies would rerun it on every instance and add
// to one aggregator, doubling the ratio counts and the time average.
func TestRunRejectsRepeatedAlgorithm(t *testing.T) {
	cfg := smallConfig(workload.Mixed)
	cfg.Algorithms = []Algorithm{AlgDEMT, AlgGang, AlgDEMT}
	if _, err := Run(t.Context(), cfg); err == nil || !strings.Contains(err.Error(), `"demt"`) {
		t.Fatalf("repeated demt: err = %v, want one naming it", err)
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, a := range algorithms() {
		got, err := ParseAlgorithm(string(a))
		if err != nil || got != a {
			t.Fatalf("round trip failed for %s", a)
		}
	}
	if _, err := ParseAlgorithm("frobnicate"); err == nil {
		t.Fatalf("unknown algorithm must fail")
	}
}

func TestFigureConfig(t *testing.T) {
	wantKinds := map[int]workload.Kind{
		3: workload.WeaklyParallel,
		4: workload.HighlyParallel,
		5: workload.Mixed,
		6: workload.Cirne,
		7: workload.WeaklyParallel,
	}
	for fig, kind := range wantKinds {
		cfg, err := FigureConfig(fig, 5, 1, false)
		if err != nil {
			t.Fatalf("figure %d: %v", fig, err)
		}
		if cfg.Workload != kind {
			t.Fatalf("figure %d: workload %v, want %v", fig, cfg.Workload, kind)
		}
		if cfg.Runs != 5 {
			t.Fatalf("figure %d: runs not propagated", fig)
		}
	}
	if cfg, _ := FigureConfig(7, 5, 1, false); len(cfg.Algorithms) != 1 || cfg.Algorithms[0] != AlgDEMT {
		t.Fatalf("figure 7 should only time DEMT")
	}
	if _, err := FigureConfig(12, 5, 1, false); err == nil {
		t.Fatalf("unknown figure must fail")
	}
}

func TestFormatTableAndCSV(t *testing.T) {
	cfg := smallConfig(workload.WeaklyParallel)
	cfg.Algorithms = []Algorithm{AlgDEMT, AlgGang}
	res, err := Run(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	table := FormatTable(res)
	for _, want := range []string{"Weighted minsum ratio", "Makespan ratio", "demt", "gang", "weakly-parallel"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Header + 2 algorithms * 2 points.
	if len(lines) != 1+2*2 {
		t.Fatalf("CSV has %d lines, want 5:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "workload,algorithm,n") {
		t.Fatalf("CSV header wrong: %s", lines[0])
	}
}

func TestSeriesForAndMaxRatio(t *testing.T) {
	cfg := smallConfig(workload.HighlyParallel)
	cfg.Algorithms = []Algorithm{AlgDEMT}
	res, err := Run(t.Context(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.seriesFor(AlgDEMT) == nil {
		t.Fatalf("missing DEMT series")
	}
	if res.seriesFor(AlgGang) != nil {
		t.Fatalf("gang series should be absent")
	}
	maxMinsum, err := res.maxRatio(AlgDEMT, "minsum")
	if err != nil || maxMinsum < 1 {
		t.Fatalf("maxRatio minsum = %g, %v", maxMinsum, err)
	}
	maxCmax, err := res.maxRatio(AlgDEMT, "cmax")
	if err != nil || maxCmax < 1 {
		t.Fatalf("maxRatio cmax = %g, %v", maxCmax, err)
	}
	if _, err := res.maxRatio(AlgGang, "cmax"); err == nil {
		t.Fatalf("maxRatio on a missing series must fail")
	}
}

// TestQualitativeShapesSmallScale checks, on a scaled-down version of the
// paper's setting, the qualitative claims of section 4.2: DEMT stays
// bounded on both criteria, and on highly parallel workloads it is at least
// competitive with the list baselines on the minsum criterion while gang is
// poor on weakly parallel workloads.
func TestQualitativeShapesSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping the shape test in -short mode")
	}
	weak, err := Run(t.Context(), Config{
		Workload: workload.WeaklyParallel, M: 32, TaskCounts: []int{20, 40}, Runs: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	high, err := Run(t.Context(), Config{
		Workload: workload.HighlyParallel, M: 32, TaskCounts: []int{20, 40}, Runs: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}

	// DEMT's makespan ratio stays bounded (paper: "no more than 2"; allow
	// slack for the scaled-down machine).
	if worst, _ := weak.maxRatio(AlgDEMT, "cmax"); worst > 3.0 {
		t.Fatalf("DEMT makespan ratio too large on weakly parallel: %.2f", worst)
	}
	if worst, _ := high.maxRatio(AlgDEMT, "cmax"); worst > 3.0 {
		t.Fatalf("DEMT makespan ratio too large on highly parallel: %.2f", worst)
	}
	// Gang is much worse than DEMT on weakly parallel tasks (Cmax).
	gangWorst, _ := weak.maxRatio(AlgGang, "cmax")
	demtWorst, _ := weak.maxRatio(AlgDEMT, "cmax")
	if gangWorst < 2*demtWorst {
		t.Fatalf("gang should be far worse than DEMT on weakly parallel tasks: gang %.2f vs demt %.2f", gangWorst, demtWorst)
	}
}

// seriesFor returns the series of one algorithm, or nil when absent.
func (r *Result) seriesFor(alg Algorithm) *Series {
	for i := range r.Series {
		if r.Series[i].Algorithm == alg {
			return &r.Series[i]
		}
	}
	return nil
}

// maxRatio returns the largest mean ratio reached by an algorithm across
// the sweep, for the given criterion ("minsum" or "cmax"). The shape test
// compares it against the paper's qualitative claims.
func (r *Result) maxRatio(alg Algorithm, criterion string) (float64, error) {
	s := r.seriesFor(alg)
	if s == nil {
		return 0, fmt.Errorf("experiment: no series for %q", alg)
	}
	worst := 0.0
	for _, p := range s.Points {
		v := p.MinsumRatio.Mean
		if criterion == "cmax" {
			v = p.CmaxRatio.Mean
		}
		if v > worst {
			worst = v
		}
	}
	return worst, nil
}
