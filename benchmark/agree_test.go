package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareMetricVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100.5, 99.5}
	noisy := []float64{60, 100, 140, 80, 120, 100}
	cases := []struct {
		name        string
		a, b, bound float64
		sa, sb      []float64
		want        string
	}{
		{"inside the bound", 100, 104, 0.05, steady, steady, verdictAgree},
		{"outside, steady runs", 100, 120, 0.05, steady, steady, verdictDisagree},
		{"outside, one noisy run", 100, 120, 0.05, steady, noisy, verdictUnresolved},
		{"exact ratio", 1.7, 1.7, 0.005, nil, nil, verdictAgree},
		{"moved ratio without samples", 1.7, 1.8, 0.005, nil, nil, verdictDisagree},
		{"both zero", 0, 0, 0.1, nil, nil, verdictAgree},
	}
	for _, c := range cases {
		if got, _ := compareMetric(c.a, c.b, c.bound, c.sa, c.sb); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestAgreeFilesReportsEveryPair(t *testing.T) {
	dir := t.TempDir()
	spec := benchmarkSpec{EndToEnd: []specMetric{
		{Name: "jobs_per_s", Unit: "jobs/s", Better: higher, Bound: 0.1},
		{Name: "cmax_ratio", Unit: "ratio", Better: lower, Bound: 0.005},
	}}
	run := func(jobs, ratio float64) resultFile {
		return resultFile{Runs: []runRecord{{
			Workload: "paper-offline", Seed: 1, Seconds: 2,
			resultLine: resultLine{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
				"jobs_per_s": {Value: jobs, Unit: "jobs/s"}, "cmax_ratio": {Value: ratio, Unit: "ratio"},
			}},
		}}}
	}
	write := func(name string, v any) string {
		path := filepath.Join(dir, name)
		if err := writeJSONFile(path, v); err != nil {
			t.Fatal(err)
		}
		return path
	}
	specPath := write("spec.json", spec)
	a, b, c := write("a.json", run(1000, 1.7)), write("b.json", run(1050, 1.7)), write("c.json", run(1050, 1.9))

	var out bytes.Buffer
	if err := agreeFiles(&out, specPath, a, b); err != nil {
		t.Fatalf("a and b agree, got %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "2 agree, 0 disagree, 0 unresolved") {
		t.Fatalf("unexpected summary:\n%s", out.String())
	}
	out.Reset()
	if err := agreeFiles(&out, specPath, a, c); err == nil || !strings.Contains(out.String(), verdictDisagree) {
		t.Fatalf("a and c must disagree on cmax_ratio, got %v\n%s", err, out.String())
	}
}
