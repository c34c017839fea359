// Command bicrit is the library's one command-line tool. Most subcommands
// consume scenario files — the single declarative spec of the bicriteria
// library — and drive every layer of the stack with them; sched, bounds
// and exp are the off-line tools of the paper's evaluation.
//
// Subcommands:
//
//   - run: replay a scenario offline through the grid federation (a
//     single topology is a one-shard grid) and print the standard
//     report; -json and -csv export a grid run.
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
//     needs no hand-written JSON. With -instance it writes instead the
//     off-line instance of -kind, -n and -seed on the one -clusters size,
//     the input of sched and bounds.
//
//     bicrit gen -topology grid -clusters 64,32,16 -n 300 -rate 6 -o scenario.json
//     bicrit gen -clusters 64 -trace jobs.swf -batch interval -interval 50 -o swf.json
//     bicrit gen -instance -kind cirne -clusters 200 -n 100 -seed 7 -o workload.json
//
//   - load: replay a scenario's job stream (generated, arrivals.file or
//     SWF trace, exactly as run compiles it) against a running service
//     over HTTP, paced by the stream's release dates at the scenario's
//     service speedup (-speedup overrides it; 0 submits as fast as
//     possible), -bulk jobs per request, honoring 429 Retry-After
//     back-pressure, and optionally draining the server at the end.
//
//     bicrit load -target http://localhost:8080 -bulk 8 -drain scenario.json
//
//   - top: live terminal dashboard polling a running service's
//     GET /metrics.prom — counter rates, gauges and histogram quantiles
//     diffed between scrapes.
//
//     bicrit top -url http://127.0.0.1:8080/metrics.prom
//
//   - sched: schedule an instance file with DEMT or one of the paper's
//     baselines and print the metrics against the lower bounds, and
//     optionally a Gantt chart or the assignment list.
//
//     bicrit sched -i workload.json -algo demt -gantt
//
//   - bounds: print the lower bounds of the paper's evaluation for an
//     instance file: the dual-approximation makespan bound, the
//     squashed-area minsum bound and the LP relaxation of section 3.3.
//
//     bicrit bounds -i workload.json
//
//   - exp: run the paper's experiments (section 4) for one of figures
//     3-7 or a custom workload/size sweep, or an ablation study, and print
//     the ratios to the lower bounds as text tables (optionally CSV).
//
//     bicrit exp -figure 6 -runs 40 -lp -csv figure6.csv
//     bicrit exp -figure 4 -runs 3 -tasks 25,50,100
//
// # Seed derivation
//
// A scenario's single seed deterministically derives every random
// stream, so one seed names one complete experiment: the task stream
// draws from the seed itself, and the arrival instants, the runtime-tail
// factors, the fault plan and the racing bandit each draw from the seed
// XOR a fixed salt of their own (internal/workload and internal/scenario
// define the salts). A faults or racing section's explicit seed
// (gen -fault-seed, -race-seed) replaces the derived one.
//
// Scenario files are versioned JSON; unknown fields and versions are
// rejected at load time. See the README's "One scenario file, every
// layer" walkthrough.
package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"bicriteria"
)

// subcommand is one entry of the dispatch table: the table alone drives
// dispatch, help and the usage and unknown-subcommand errors.
type subcommand struct {
	name, summary string
	run           func(args []string, out io.Writer) error
}

var subcommands = []subcommand{
	{"run", "replay a scenario file offline and print the report", runCmd},
	{"explain", "print one job's flight-recorder timeline (from a trace or scenario file)", explainCmd},
	{"serve", "run a scenario file as a live scheduler service", func(args []string, out io.Writer) error {
		return serveCmd(args, out, nil, nil)
	}},
	{"gen", "write a scenario file (or, with -instance, an off-line instance) from flags", genCmd},
	{"load", "replay a scenario's job stream against a running service", loadCmd},
	{"top", "live terminal dashboard over a service's /metrics.prom", topCmd},
	{"sched", "schedule an instance file with DEMT or a baseline", schedCmd},
	{"bounds", "print the lower bounds of an instance file", boundsCmd},
	{"exp", "reproduce the paper's figures and ablations", expCmd},
}

func main() {
	if err := dispatch(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bicrit:", err)
		os.Exit(1)
	}
}

func dispatch(args []string, out io.Writer) error {
	names := make([]string, len(subcommands))
	for i, c := range subcommands {
		names[i] = c.name
	}
	usage := "usage: bicrit <" + strings.Join(names, "|") + "> [flags]"
	if len(args) == 0 {
		return fmt.Errorf("%s — see 'bicrit <cmd> -h'", usage)
	}
	for _, c := range subcommands {
		if c.name == args[0] {
			return c.run(args[1:], out)
		}
	}
	switch args[0] {
	case "-version", "--version", "version":
		fmt.Fprintf(out, "bicrit %s (%s)\n", bicriteria.Version, runtime.Version())
		return nil
	case "-h", "-help", "--help", "help":
		fmt.Fprintln(out, usage)
		for _, c := range subcommands {
			fmt.Fprintf(out, "  %-8s %s\n", c.name, c.summary)
		}
		fmt.Fprintln(out, "flags: -version prints the release and Go version")
		return nil
	}
	return fmt.Errorf("unknown subcommand %q (want %s or %s)",
		args[0], strings.Join(names[:len(names)-1], ", "), names[len(names)-1])
}
