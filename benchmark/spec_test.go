package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	var spec benchmarkSpec
	if err := readJSONFile(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestNamesAndUnitsAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is malformed", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloadNames {
		check("workload", w)
		if _, ok := workloadRunners[w]; !ok {
			t.Errorf("workload %q has no runner", w)
		}
		if why := workloadWhy[w]; why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %q needs a one-line reason of at most 200 characters, has %d", w, len(why))
		}
	}
	if len(workloadRunners) != len(workloadNames) {
		t.Errorf("%d runners for %d workload names", len(workloadRunners), len(workloadNames))
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		check("metric", d.name)
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %q has malformed unit %q", d.name, d.unit)
		}
		if d.better != lower && d.better != higher {
			t.Errorf("metric %q has direction %q", d.name, d.better)
		}
		for _, w := range d.workloads {
			if _, ok := workloadRunners[w]; !ok {
				t.Errorf("metric %q names unknown workload %q", d.name, w)
			}
		}
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics are outside the contract's limits", len(endToEnd), len(perLayer))
	}
}

// TestBenchmarkJSONMatchesTheHarness holds BENCHMARK.json and the harness's
// own tables to each other, both ways: every workload and metric the file
// names is one the harness reports, with the same unit, direction and
// bound, and the reverse. Regenerate the file with -print-spec.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	got, want := loadSpec(t), specFromTables()
	if !reflect.DeepEqual(got, want) {
		g, _ := json.MarshalIndent(got, "", "  ")
		w, _ := json.MarshalIndent(want, "", "  ")
		t.Fatalf("BENCHMARK.json differs from the harness's tables (run `go run . -print-spec > ../BENCHMARK.json`)\nfile:\n%s\ntables:\n%s", g, w)
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", got.RunSeconds)
	}
	var setup *specMetric
	for i, m := range got.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q has bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = &got.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != lower {
		t.Fatal("BENCHMARK.json needs setup_s in seconds, lower is better")
	}
	for _, m := range got.EndToEnd {
		if m.Bound > setup.Bound {
			t.Errorf("setup_s must carry the largest bound; %s has %g > %g", m.Name, m.Bound, setup.Bound)
		}
	}
}

// TestQuickSmoke runs all four workloads at tiny sizes, untraced and
// traced, through the same entry point as the command: API drift in any
// layer the harness calls breaks this test, not the next measured run.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four workloads for a second each, twice")
	}
	dir := t.TempDir()
	for _, trace := range []string{"0", "1"} {
		var out bytes.Buffer
		jsonPath := filepath.Join(dir, "result-"+trace+".json")
		err := mainErr([]string{"-workload", "all", "-quick", "-seconds", "1", "-seed", "7", "-trace", trace,
			"-out", filepath.Join(dir, "out"), "-json", jsonPath}, &out)
		if err != nil {
			t.Fatalf("trace %s: %v\n%s", trace, err, out.String())
		}
		var file resultFile
		if err := readJSONFile(jsonPath, &file); err != nil {
			t.Fatal(err)
		}
		if len(file.Runs) != len(workloadNames) {
			t.Fatalf("trace %s: %d runs recorded, want %d", trace, len(file.Runs), len(workloadNames))
		}
		if file.Env.GoVersion == "" || file.Env.GOMAXPROCS < 1 || file.Env.NumCPU < 1 {
			t.Errorf("environment not recorded: %+v", file.Env)
		}
		defs := defsFor(trace == "1")
		// The result object of each workload is a line of its own.
		var lines []resultLine
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(l, "{") {
				var rl resultLine
				if err := json.Unmarshal([]byte(l), &rl); err != nil {
					t.Fatalf("result line does not parse: %v\n%s", err, l)
				}
				lines = append(lines, rl)
			}
		}
		if len(lines) != len(workloadNames) {
			t.Fatalf("trace %s: %d result lines, want %d", trace, len(lines), len(workloadNames))
		}
		for i, run := range file.Runs {
			if !run.Correct || run.Failed != 0 || run.Attempted < 1 {
				t.Errorf("%s trace %s: correct %v, attempted %d, failed %d: %v", run.Workload, trace, run.Correct, run.Attempted, run.Failed, run.Problems)
			}
			if len(lines[i].Metrics) != len(defs) {
				t.Errorf("%s trace %s: %d metrics in the result line, want %d", run.Workload, trace, len(lines[i].Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := lines[i].Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace %s: metric %q missing or in unit %q", run.Workload, trace, d.name, m.Unit)
				}
				if trace == "0" && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %q = %g, must be positive", run.Workload, d.name, m.Value)
				}
			}
			if run.Sizes == nil || len(run.Samples) == 0 {
				t.Errorf("%s trace %s: sizes or raw samples not recorded", run.Workload, trace)
			}
		}
	}
	// Two untraced runs of the same seed agree on what repeats exactly.
	var out bytes.Buffer
	second := filepath.Join(dir, "again.json")
	if err := mainErr([]string{"-workload", "paper-offline", "-quick", "-seconds", "1", "-seed", "7", "-out", filepath.Join(dir, "out"), "-json", second}, &out); err != nil {
		t.Fatal(err)
	}
	var a, b resultFile
	if err := readJSONFile(filepath.Join(dir, "result-0.json"), &a); err != nil {
		t.Fatal(err)
	}
	if err := readJSONFile(second, &b); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cmax_ratio", "minsum_ratio", "mean_stretch"} {
		if a.Runs[0].Metrics[name] != b.Runs[0].Metrics[name] {
			t.Errorf("%s does not repeat: %v then %v", name, a.Runs[0].Metrics[name], b.Runs[0].Metrics[name])
		}
	}
}
