// Command bicrit-lint is the repo's determinism linter: a multichecker
// running five custom static analyzers that prove the replay invariants —
// concurrent replays byte-identical to sequential ones — at compile time
// instead of waiting for a determinism stress test to flake.
//
// Usage:
//
//	bicrit-lint [-list] [-run regexp] [packages...]
//
// Packages default to ./... of the enclosing module. Findings print as
// file:line:col: analyzer: message and make the process exit 1, so the
// binary slots into CI next to gofmt and go vet. A finding is silenced
// only by fixing it or by an explicit, reasoned
//
//	//lint:allow <analyzer> <reason>
//
// directive on (or directly above) the offending line.
//
// Which analyzers see which packages is policy, encoded here: the
// deterministic core of the module (scheduling, simulation, replay,
// traces, flight timelines) answers to every analyzer, while the
// boundary packages that legitimately touch the wall clock or own the
// process edge (serve's pacer, obs' wall-clock histograms, logx,
// the experiment measurement harness and the main packages) are
// exempt from the clock and context rules — but never from seededrand,
// maprange or wirefields, which hold everywhere.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"

	"bicriteria/tools/lint/internal/analyzers/ctxflow"
	"bicriteria/tools/lint/internal/analyzers/maprange"
	"bicriteria/tools/lint/internal/analyzers/nowallclock"
	"bicriteria/tools/lint/internal/analyzers/seededrand"
	"bicriteria/tools/lint/internal/analyzers/wirefields"
	"bicriteria/tools/lint/internal/framework"
)

// analyzers is the full suite, in reporting order.
var analyzers = []*framework.Analyzer{
	ctxflow.Analyzer,
	maprange.Analyzer,
	nowallclock.Analyzer,
	seededrand.Analyzer,
	wirefields.Analyzer,
}

// nondeterministic lists the packages of the main module that sit on the
// process boundary and may read the wall clock or mint root contexts:
// serve (pacer + HTTP edge), obs (wall-clock histograms), logx
// (timestamped logs), experiment (measurement harness),
// buildinfo, and every main package under cmd/ and examples/. The
// deterministic invariant analyzers skip them; the order and wire-format
// analyzers do not.
var nondeterministic = []string{
	"bicriteria/internal/serve",
	"bicriteria/internal/obs",
	"bicriteria/internal/logx",
	"bicriteria/internal/experiment",
	"bicriteria/internal/buildinfo",
	"bicriteria/cmd",
	"bicriteria/examples",
}

// scoped names the analyzers restricted to deterministic packages.
var scoped = map[string]bool{
	"nowallclock": true,
	"ctxflow":     true,
}

// filter implements the policy above for one (analyzer, package) pair.
func filter(a *framework.Analyzer, pkgPath string) bool {
	if !scoped[a.Name] {
		return true
	}
	for _, p := range nondeterministic {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return false
		}
	}
	return true
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bicrit-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	runPat := fs.String("run", "", "only run analyzers matching this regexp")
	verbose := fs.Bool("v", false, "report the number of packages analyzed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	selected := analyzers
	if *runPat != "" {
		re, err := regexp.Compile(*runPat)
		if err != nil {
			fmt.Fprintf(stderr, "bicrit-lint: bad -run pattern: %v\n", err)
			return 2
		}
		selected = nil
		for _, a := range analyzers {
			if re.MatchString(a.Name) {
				selected = append(selected, a)
			}
		}
		if len(selected) == 0 {
			fmt.Fprintf(stderr, "bicrit-lint: -run %q matches no analyzer\n", *runPat)
			return 2
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "bicrit-lint: %v\n", err)
		return 2
	}
	loader, err := framework.NewLoader(cwd)
	if err != nil {
		fmt.Fprintf(stderr, "bicrit-lint: %v\n", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "bicrit-lint: %v\n", err)
		return 2
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			fmt.Fprintf(stderr, "bicrit-lint: %s: typecheck: %v\n", p.Path, terr)
		}
	}
	diags, err := framework.Run(selected, pkgs, filter)
	if err != nil {
		fmt.Fprintf(stderr, "bicrit-lint: %v\n", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if *verbose {
		fmt.Fprintf(stderr, "bicrit-lint: %d packages, %d findings\n", len(pkgs), len(diags))
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
