// Command benchmark is the repo's end-to-end benchmark: four workloads,
// from one DEMT schedule to a live `bicrit serve`, each run in a fresh
// process. The untraced run prints the end-to-end metrics, the traced run
// (-trace 1) the per-layer ones; both check the program's outputs. The
// last line of standard output is the result object BENCHMARK.json's
// contract asks for. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's result object: the last line of stdout.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// environment records where a result set was measured.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// runRecord is one workload run inside a result file.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Quick    bool    `json:"quick,omitempty"`
	resultLine
	// Sizes are the frozen input sizes of the run; Samples the raw per-rep
	// values behind the timing metrics; Problems every failed check.
	Sizes    map[string]float64   `json:"sizes"`
	Samples  map[string][]float64 `json:"samples"`
	Problems []string             `json:"problems,omitempty"`
}

// resultFile is what -json writes and -agree reads.
type resultFile struct {
	Env  environment `json:"env"`
	Runs []runRecord `json:"runs"`
}

func currentEnvironment() environment {
	env := environment{
		Commit: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// defsFor returns the metric definitions a run reports.
func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// record turns a workload's outcome into the run record: every metric of
// the run's kind by name and unit, a layer the workload never entered
// reading 0.
func record(cfg runConfig, o *outcome) runRecord {
	rec := runRecord{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Quick: cfg.quick,
		resultLine: resultLine{
			Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
			Metrics: map[string]metricValue{},
		},
		Sizes: o.sizes, Samples: o.samples, Problems: o.problems,
	}
	for _, d := range defsFor(cfg.trace) {
		rec.Metrics[d.name] = metricValue{Value: orZero(o.metrics[d.name]), Unit: d.unit}
	}
	return rec
}

// printRecord writes the human-readable table of one run.
func printRecord(w io.Writer, rec runRecord) {
	kind := "end-to-end"
	if rec.Trace {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  seed %d  %gs  %s  GOMAXPROCS %d\n", rec.Workload, rec.Seed, rec.Seconds, kind, runtime.GOMAXPROCS(0))
	for _, name := range slices.Sorted(maps.Keys(rec.Sizes)) {
		fmt.Fprintf(w, "   size %-22s %g\n", name, rec.Sizes[name])
	}
	for _, d := range defsFor(rec.Trace) {
		if d.workloads != nil && !slices.Contains(d.workloads, rec.Workload) {
			continue
		}
		line := fmt.Sprintf("   %-34s %14.6g %-6s", d.name, rec.Metrics[d.name].Value, d.unit)
		if s := rec.Samples[d.name]; len(s) > 1 {
			q1, _, q3 := quartiles(s)
			line += fmt.Sprintf("  n=%d q1=%.6g q3=%.6g", len(s), q1, q3)
		}
		if d.moves != "" {
			line += "  -> " + d.moves
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "   operations attempted %d, failed %d\n", rec.Attempted, rec.Failed)
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "   FAILED: %s\n", p)
	}
}

// execute runs one workload and returns its record.
func execute(ctx context.Context, cfg runConfig) (runRecord, error) {
	run, ok := workloadRunners[cfg.workload]
	if !ok {
		return runRecord{}, fmt.Errorf("unknown workload %q (want one of %v or all)", cfg.workload, workloadNames)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return runRecord{}, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer(cfg.workload)
	}
	o, err := run(ctx, cfg, tr)
	if err != nil {
		return runRecord{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if err := tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".jsonl")); err != nil {
		return runRecord{}, err
	}
	return record(cfg, o), nil
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workloadFlag := fs.String("workload", "all", "workload to run: paper-offline, cluster-stream, grid-stream, serve-stream or all")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", runSeconds, "how long the timed phase measures")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
	quick := fs.Bool("quick", false, "tiny sizes: a smoke run whose numbers mean nothing")
	out := fs.String("out", filepath.Join("benchmark", "out"), "directory for generated inputs and span dumps")
	jsonPath := fs.String("json", "", "also write the full result set (environment, sizes, raw samples) to this file")
	agree := fs.Bool("agree", false, "compare two result files (the two arguments) against the bounds in BENCHMARK.json")
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark definition -agree takes its bounds from")
	printSpec := fs.Bool("print-spec", false, "print the BENCHMARK.json the harness's metric tables imply and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *printSpec {
		data, err := json.MarshalIndent(specFromTables(), "", "  ")
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(stdout, "%s\n", data)
		return err
	}
	if *agree {
		if fs.NArg() != 2 {
			return errors.New("-agree needs two result files")
		}
		return agreeFiles(stdout, *specPath, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	names := []string{*workloadFlag}
	if *workloadFlag == "all" {
		names = workloadNames
	}
	file := resultFile{Env: currentEnvironment()}
	ctx := context.Background()
	failed := false
	for _, name := range names {
		rec, err := execute(ctx, runConfig{
			workload: name, seed: *seed, seconds: *seconds, trace: *trace != 0, quick: *quick, outDir: *out,
		})
		if err != nil {
			return err
		}
		file.Runs = append(file.Runs, rec)
		printRecord(stdout, rec)
		failed = failed || !rec.Correct
		line, err := json.Marshal(rec.resultLine)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if *jsonPath != "" {
		if err := writeJSONFile(*jsonPath, file); err != nil {
			return err
		}
	}
	if failed {
		return errors.New("a correctness check failed")
	}
	return nil
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
