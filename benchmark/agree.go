package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json -agree and the tests read.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is how long the timed phase of one driver run measures.
const runSeconds = 20

// specFromTables is the BENCHMARK.json the harness's own tables imply;
// -print-spec prints it and a test holds the committed file to it.
func specFromTables() benchmarkSpec {
	spec := benchmarkSpec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadNames {
		spec.Workloads = append(spec.Workloads, specWorkload{Name: w, Why: workloadWhy[w]})
	}
	for _, d := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, specMetric{Name: d.name, Unit: d.unit, Better: d.better, Bound: d.bound})
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, specMetric{Name: d.name, Unit: d.unit, Better: d.better})
	}
	return spec
}

func readJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdicts of one metric on one workload across two result sets.
const (
	verdictAgree      = "agree"
	verdictDisagree   = "DISAGREE"
	verdictUnresolved = "unresolved"
)

// compareMetric decides whether two measurements of one metric agree: the
// values lie within the bound of each other; or, when they do not, whether
// the spread between the repetitions of either run is wider than the bound,
// in which case nothing can be said.
func compareMetric(a, b, bound float64, samplesA, samplesB []float64) (verdict string, diff float64) {
	base := math.Min(math.Abs(a), math.Abs(b))
	if base == 0 {
		if a == b {
			return verdictAgree, 0
		}
		return verdictDisagree, math.Inf(1)
	}
	diff = math.Abs(a-b) / base
	switch {
	case diff <= bound:
		return verdictAgree, diff
	case spread(samplesA) > bound || spread(samplesB) > bound:
		return verdictUnresolved, diff
	default:
		return verdictDisagree, diff
	}
}

// agreeFiles compares two result sets metric by metric against the bounds
// of the benchmark definition and prints one row per workload and metric.
func agreeFiles(w io.Writer, specPath, pathA, pathB string) error {
	var spec benchmarkSpec
	if err := readJSONFile(specPath, &spec); err != nil {
		return err
	}
	var fa, fb resultFile
	if err := readJSONFile(pathA, &fa); err != nil {
		return err
	}
	if err := readJSONFile(pathB, &fb); err != nil {
		return err
	}
	fmt.Fprintf(w, "a: %s  commit %s  %s  GOMAXPROCS %d  nproc %d\n", pathA, fa.Env.Commit, fa.Env.GoVersion, fa.Env.GOMAXPROCS, fa.Env.NumCPU)
	fmt.Fprintf(w, "b: %s  commit %s  %s  GOMAXPROCS %d  nproc %d\n", pathB, fb.Env.Commit, fb.Env.GoVersion, fb.Env.GOMAXPROCS, fb.Env.NumCPU)
	counts := map[string]int{}
	compared := 0
	for _, ra := range fa.Runs {
		if ra.Trace {
			continue
		}
		for _, rb := range fb.Runs {
			if rb.Trace || rb.Workload != ra.Workload {
				continue
			}
			if ra.Seed != rb.Seed || ra.Seconds != rb.Seconds || ra.Quick != rb.Quick {
				return fmt.Errorf("%s: the two runs differ in seed, seconds or sizes; nothing to compare", ra.Workload)
			}
			for _, m := range spec.EndToEnd {
				va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
				verdict, diff := compareMetric(va, vb, m.Bound, ra.Samples[m.Name], rb.Samples[m.Name])
				counts[verdict]++
				compared++
				fmt.Fprintf(w, "%-15s %-18s a=%-12.6g b=%-12.6g diff %6.2f%%  bound %5.1f%%  %s\n",
					ra.Workload, m.Name, va, vb, 100*diff, 100*m.Bound, verdict)
			}
		}
	}
	if compared == 0 {
		return fmt.Errorf("the two files share no untraced run")
	}
	fmt.Fprintf(w, "%d agree, %d disagree, %d unresolved (spread between repetitions wider than the bound)\n",
		counts[verdictAgree], counts[verdictDisagree], counts[verdictUnresolved])
	if counts[verdictDisagree] > 0 {
		return fmt.Errorf("%d metrics disagree", counts[verdictDisagree])
	}
	return nil
}
