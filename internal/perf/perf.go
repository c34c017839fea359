// Package perf is the performance observatory of the library: a named
// benchmark suite over every instrumented hot path, a versioned
// machine-readable trajectory format (the BENCH_*.json files CI records
// on every commit), regression comparison and gating between two
// trajectories, and the terminal dashboard renderer behind bicrit top.
//
// The suite (Suite) drives the same code the runtime layers execute —
// DEMT's dual-approximation, knapsack and compaction phases via
// core.Options.Timing, each portfolio algorithm on a standard batch,
// single-batch planning, the cluster and grid replays at 1/4/8 shards,
// the serve layer's bulk HTTP ingest and scenario compilation — under
// the standard testing harness,
// so ns/op, allocs/op and B/op are comparable to go test -bench output.
//
// Trajectories are compared benchmark-by-benchmark (Compare) and gated
// (Gate): a gate threshold of 1.25 fails any benchmark whose ns/op grew
// past 1.25x the old trajectory, and any benchmark that disappeared.
// cmd/bicrit wires this into `bicrit bench -compare old.json -gate 1.25`,
// which CI runs against the previous recorded trajectory (falling back
// to the committed testdata/BENCH_baseline.json).
//
// RenderDashboard turns two successive parsed /metrics.prom scrapes
// (obs.ParseText) into the live terminal view of bicrit top: gauges,
// counter rates over the scrape interval, and histogram quantiles
// estimated from the cumulative buckets (obs.BucketQuantile).
package perf

import (
	"fmt"
	"regexp"
	"testing"
)

// Benchmark is one named member of the suite.
type Benchmark struct {
	// Name identifies the benchmark in trajectories and -run patterns,
	// using go test's slash convention for variants ("GridReplay/clusters=4").
	Name string
	// F is the benchmark body.
	F func(b *testing.B)
}

// Select filters the suite by a go test -bench style regular expression
// matched against the benchmark names. An empty pattern keeps everything;
// a pattern matching nothing is an error.
func Select(pattern string) ([]Benchmark, error) {
	all := Suite()
	if pattern == "" {
		return all, nil
	}
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, fmt.Errorf("perf: bad -run pattern: %v", err)
	}
	var out []Benchmark
	for _, b := range all {
		if re.MatchString(b.Name) {
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("perf: -run pattern %q matches no benchmark", pattern)
	}
	return out, nil
}

// Run executes one benchmark under the testing harness and flattens the
// measurement. A benchmark that reported an "ns/op" metric explicitly
// (the DEMT phase benchmarks, which time a sub-phase of each iteration)
// overrides the harness wall clock, exactly as testing.BenchmarkResult
// does. A benchmark body that failed (b.Fatal) leaves N at zero in the
// harness result; that is an error here, not a NaN in the trajectory.
func Run(b Benchmark) (Result, error) {
	res := testing.Benchmark(b.F)
	if res.N == 0 {
		return Result{}, fmt.Errorf("perf: benchmark %s failed", b.Name)
	}
	nsPerOp := float64(res.T.Nanoseconds()) / float64(res.N)
	if v, ok := res.Extra["ns/op"]; ok {
		nsPerOp = v
	}
	return Result{
		Name:        b.Name,
		N:           res.N,
		NsPerOp:     nsPerOp,
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	}, nil
}
