// Command bicrit is the unified scenario CLI: one binary that consumes
// scenario files — the single declarative spec of the bicriteria library
// — and drives every layer of the stack with them.
//
// Subcommands:
//
//   - run: replay a scenario offline through its compiled engine (the
//     cluster engine for single topology, the grid federation for grid)
//     and print the standard report; -json and -csv export a grid run.
//     The report, JSON and CSV bytes are pinned by the goldens under
//     testdata/.
//
//     bicrit run -v scenario.json
//     bicrit run -json report.json -csv clusters.csv scenario.json
//
//   - explain: print one job's flight-recorder timeline — every
//     scheduling decision that touched the job, with per-shard routing
//     verdicts, the winning portfolio algorithm, the chosen allotment and
//     the batch lower bound. Reads a recorded trace
//     (`bicrit run -flight trace.jsonl`) or replays a scenario file.
//
//     bicrit explain trace.jsonl 42
//     bicrit explain -sequential scenario.json 42
//
//   - serve: run the scenario as a live scheduler service (the serve
//     layer's HTTP API), using the scenario's optional "service" section
//     for pacing, rate limiting and snapshots. A service whose snapshot
//     file exists restores it on start and says how many jobs it restored.
//
//     bicrit serve -addr :8080 scenario.json
//
//   - gen: write a scenario file from flags, so a replay or a service
//     needs no hand-written JSON.
//
//     bicrit gen -topology grid -clusters 64,32,16 -n 300 -rate 6 -o scenario.json
//     bicrit gen -clusters 64 -trace jobs.swf -batch interval -interval 50 -o swf.json
//
//   - top: live terminal dashboard polling a running service's
//     GET /metrics.prom — counter rates, queue depths and histogram
//     quantiles diffed between scrapes.
//
//     bicrit top -url http://127.0.0.1:8080/metrics.prom
//
// Scenario files are versioned JSON; unknown fields and versions are
// rejected at load time. See the README's "One scenario file, every
// layer" walkthrough.
package main

import (
	"fmt"
	"os"
	"runtime"

	"bicriteria"
)

func main() {
	if err := dispatch(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bicrit:", err)
		os.Exit(1)
	}
}

func dispatch(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: bicrit <run|explain|serve|gen|top> [flags] — see 'bicrit <cmd> -h'")
	}
	switch args[0] {
	case "run":
		return runCmd(args[1:], os.Stdout)
	case "explain":
		return explainCmd(args[1:], os.Stdout)
	case "serve":
		return serveCmd(args[1:], os.Stdout, nil, nil)
	case "gen":
		return genCmd(args[1:], os.Stdout)
	case "top":
		return topCmd(args[1:], os.Stdout)
	case "-version", "--version", "version":
		fmt.Printf("bicrit %s (%s)\n", bicriteria.Version, runtime.Version())
		return nil
	case "-h", "-help", "--help", "help":
		fmt.Println("usage: bicrit <run|explain|serve|gen|top> [flags]")
		fmt.Println("  run      replay a scenario file offline and print the report")
		fmt.Println("  explain  print one job's flight-recorder timeline (from a trace or scenario file)")
		fmt.Println("  serve    run a scenario file as a live scheduler service")
		fmt.Println("  gen      write a scenario file from flags")
		fmt.Println("  top      live terminal dashboard over a service's /metrics.prom")
		fmt.Println("flags: -version prints the release and Go version")
		return nil
	}
	return fmt.Errorf("unknown subcommand %q (want run, explain, serve, gen or top)", args[0])
}
