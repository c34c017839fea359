package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"bicriteria"
)

// runCmd compiles and replays one scenario file, printing the standard
// report (and optional JSON/CSV exports for grid scenarios).
func runCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bicrit run", flag.ContinueOnError)
	verbose := fs.Bool("v", false, "print one line per batch (single topology) or routing decision (grid)")
	sequential := fs.Bool("sequential", false, "force the goroutine-free replay path (overrides the scenario)")
	raceCutoff := fs.Float64("race-cutoff", 0, "portfolio racing cutoff factor vs the batch lower bound; >1 enables racing, 0 or 1 disables (overrides the scenario)")
	bandit := fs.Bool("bandit", false, "bias the racing launch order toward recent winners (overrides the scenario)")
	jsonPath := fs.String("json", "", "write the full grid report as JSON (grid topology)")
	csvPath := fs.String("csv", "", "write the per-cluster summary table as CSV (grid topology)")
	tracePath := fs.String("trace", "", "write the event trace to this file (overrides the scenario's trace section)")
	traceFormat := fs.String("trace-format", "", "trace format: chrome (default, perfetto-viewable) or jsonl")
	flightPath := fs.String("flight", "", "write the flight-recorder trace (per-job timelines) to this file as JSONL")
	logLevel := fs.String("log-level", "", "emit structured logs at this level (debug, info, warn, error); silent when empty")
	logJSON := fs.Bool("log-json", false, "structured logs as JSON instead of logfmt-style text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := bicriteria.NewLogger(os.Stderr, *logLevel, *logJSON)
	if err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: bicrit run [flags] scenario.json")
	}
	scn, err := bicriteria.LoadScenario(fs.Arg(0))
	if err != nil {
		return err
	}
	if *sequential {
		scn.Sequential = true
	}
	// -race-cutoff and -bandit override the scenario's racing section only
	// when set on the command line, so `bicrit run scenario.json` replays
	// the file's own racing configuration untouched.
	fs.Visit(func(f *flag.Flag) {
		if f.Name != "race-cutoff" && f.Name != "bandit" {
			return
		}
		if scn.Racing == nil {
			scn.Racing = &bicriteria.ScenarioRacing{}
		}
		if f.Name == "race-cutoff" {
			scn.Racing.Cutoff = *raceCutoff
		} else {
			scn.Racing.Bandit = *bandit
		}
	})
	// The -trace flag overrides the scenario's trace section, before
	// Compile so a bad -trace-format fails before the replay.
	if *tracePath != "" {
		scn.Trace = &bicriteria.ScenarioTrace{Path: *tracePath, Format: *traceFormat}
	} else if *traceFormat != "" {
		return fmt.Errorf("-trace-format needs -trace (or a trace section in the scenario)")
	}

	runner, err := bicriteria.Compile(scn)
	if err != nil {
		return err
	}
	info := runner.Info()
	var observer bicriteria.ScenarioObserver
	if *verbose {
		// The verbose stream is batch lines for the single topology and
		// routing decisions for the grid.
		if info.Topology == bicriteria.TopologySingle {
			observer.Batch = func(_ int, br bicriteria.ClusterBatchReport) {
				fmt.Fprint(out, bicriteria.FormatScenarioBatchLine(br))
			}
		} else {
			observer.Decision = func(d bicriteria.GridDecision) {
				fmt.Fprint(out, bicriteria.FormatScenarioDecisionLine(d))
			}
		}
	}
	if *logLevel != "" {
		observer = bicriteria.MergeScenarioObservers(observer, bicriteria.ScenarioLogObserver(logger))
	}
	runner.Observe(observer)
	var recorder *bicriteria.FlightRecorder
	if *flightPath != "" {
		recorder = bicriteria.NewFlightRecorder()
		runner.Flight(recorder)
	}
	logger.Info("run starting", "scenario", fs.Arg(0), "topology", string(info.Topology), "jobs", info.Jobs)
	rep, err := runner.Run(context.Background())
	if err != nil {
		return err
	}
	logger.Info("run complete", "jobs", info.Jobs)
	if recorder != nil {
		if err := writeFile(*flightPath, recorder.WriteJSONL); err != nil {
			return err
		}
	}
	if spec := scn.Trace; spec != nil {
		if err := writeFile(spec.Path, func(w io.Writer) error {
			return bicriteria.WriteScenarioTrace(w, spec.Format, rep)
		}); err != nil {
			return err
		}
	}
	if err := bicriteria.WriteScenarioReport(out, info, rep); err != nil {
		return err
	}
	if *jsonPath != "" {
		if err := writeFile(*jsonPath, func(w io.Writer) error {
			return bicriteria.WriteScenarioReportJSON(w, rep)
		}); err != nil {
			return err
		}
	}
	if *csvPath != "" {
		if err := writeFile(*csvPath, func(w io.Writer) error {
			return bicriteria.WriteScenarioReportCSV(w, info, rep)
		}); err != nil {
			return err
		}
	}
	return nil
}

// writeFile creates path and streams the render into it.
func writeFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = render(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
