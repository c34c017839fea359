package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"bicriteria/internal/perf"
)

// benchCmd runs the perf observatory's benchmark suite — every
// instrumented hot path, from DEMT's internal phases to the serve
// layer's bulk ingest — and records the measurements as a versioned
// BENCH trajectory (commit, go version, GOMAXPROCS, timestamp,
// ns/op + allocs/op + B/op per benchmark). With -compare it prints the
// per-benchmark delta table against a previous trajectory, and with
// -gate it exits nonzero when any benchmark regressed past the
// threshold — the regression gate CI runs on every push.
//
//	bicrit bench                                   # run all, write BENCH_smoke.json
//	bicrit bench -list                             # enumerate benchmark names
//	bicrit bench -run 'GridReplay/'                # run a subset, go test -bench style
//	bicrit bench -compare old.json -gate 1.25      # run, diff, fail on >1.25x ns/op
//	bicrit bench -compare old.json new.json        # diff two recorded files, run nothing
func benchCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bicrit bench", flag.ContinueOnError)
	outPath := fs.String("o", "BENCH_smoke.json", "output file of the JSON trajectory")
	benchtime := fs.Duration("benchtime", 0, "minimum run time per benchmark (0 = the testing default 1s)")
	list := fs.Bool("list", false, "print the benchmark names (after -run filtering) and exit")
	runPat := fs.String("run", "", "only run benchmarks matching this regexp, like go test -bench")
	comparePath := fs.String("compare", "", "BENCH file to diff the new measurements against")
	gate := fs.Float64("gate", 0, "with -compare: fail when any ns/op regressed past this factor (e.g. 1.25), or a benchmark disappeared")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 1 {
		return fmt.Errorf("usage: bicrit bench [-list] [-run re] [-o BENCH.json] [-compare old.json [-gate 1.25]] [new.json]")
	}
	if *gate != 0 && *comparePath == "" {
		return fmt.Errorf("-gate needs -compare: a threshold without a baseline gates nothing")
	}
	if fs.NArg() == 1 && *comparePath == "" {
		return fmt.Errorf("a positional BENCH file only makes sense with -compare (file-vs-file mode)")
	}

	selected, err := perf.Select(*runPat)
	if err != nil {
		return err
	}
	if *list {
		for _, b := range selected {
			fmt.Fprintln(out, b.Name)
		}
		return nil
	}

	var current perf.Trajectory
	if fs.NArg() == 1 {
		// File-vs-file mode: diff two recorded trajectories, run nothing.
		if current, err = perf.LoadTrajectory(fs.Arg(0)); err != nil {
			return err
		}
	} else {
		if *benchtime != 0 {
			// testing.Benchmark honours the -test.benchtime flag; Init registers
			// it on the global flag set (which bicrit's subcommands don't use).
			testing.Init()
			if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
				return err
			}
		}
		results := make([]perf.Result, len(selected))
		for i, b := range selected {
			if results[i], err = perf.Run(b); err != nil {
				return err
			}
			fmt.Fprintf(out, "%-28s %12.0f ns/op %8d allocs/op %12d B/op\n",
				results[i].Name, results[i].NsPerOp, results[i].AllocsPerOp, results[i].BytesPerOp)
		}
		current = perf.NewTrajectory(results, currentCommit(), time.Now())
		if err := writeFile(*outPath, func(w io.Writer) error {
			return perf.WriteTrajectory(w, current)
		}); err != nil {
			return err
		}
	}

	if *comparePath == "" {
		return nil
	}
	old, err := perf.LoadTrajectory(*comparePath)
	if err != nil {
		return err
	}
	deltas := perf.Compare(old, current)
	fmt.Fprintf(out, "\ncomparing against %s", *comparePath)
	if old.Commit != "" {
		fmt.Fprintf(out, " (commit %s)", old.Commit)
	}
	fmt.Fprintln(out)
	fmt.Fprint(out, perf.FormatDeltas(deltas))
	if *gate == 0 {
		return nil
	}
	failures, err := perf.Gate(deltas, *gate)
	if err != nil {
		return err
	}
	if len(failures) > 0 {
		return fmt.Errorf("perf gate (threshold %gx) failed:\n  %s", *gate, strings.Join(failures, "\n  "))
	}
	fmt.Fprintf(out, "perf gate passed: no benchmark regressed past %gx\n", *gate)
	return nil
}

// currentCommit resolves the revision being measured: CI's GITHUB_SHA
// when set, otherwise a quiet git lookup, otherwise empty (trajectories
// stay comparable without it).
func currentCommit() string {
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		return sha
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
