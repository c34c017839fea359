package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	workload string
	seed     int64
	// seconds is how long the timed phase measures.
	seconds float64
	// trace selects the traced run (per-layer metrics) instead of the
	// untraced one (end-to-end metrics).
	trace bool
	// quick shrinks every size so the four workloads finish in seconds:
	// the smoke mode the tests run. Its numbers mean nothing.
	quick bool
	// outDir receives the generated inputs (arrival streams, snapshots)
	// and the span dumps.
	outDir string
}

// repeats is how many times a run repeats its set-up (setup_s is the
// median) and, traced, each variant it times.
func (c runConfig) repeats() int {
	if c.quick {
		return 1
	}
	return 3
}

// outcome is what one workload run reports.
type outcome struct {
	// attempted and failed count operations: schedules, replays, HTTP
	// requests. A failed correctness check is a failed operation.
	attempted int
	failed    int
	// metrics holds the values by metric name; samples the raw per-rep
	// values behind the timing metrics (for -agree's spread check).
	metrics map[string]float64
	samples map[string][]float64
	// sizes records the frozen input sizes of the run.
	sizes map[string]float64
	// problems lists every failed check in words.
	problems []string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, samples: map[string][]float64{}, sizes: map[string]float64{}}
}

// fail records failed operations with the reason.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// set stores a metric value.
func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

// workloadFunc runs one workload; tr is nil on the untraced run.
type workloadFunc func(ctx context.Context, cfg runConfig, tr *tracer) (*outcome, error)

// workloadRunners maps the workload names of BENCHMARK.json to their code.
var workloadRunners = map[string]workloadFunc{
	"paper-offline":  paperOffline,
	"cluster-stream": clusterStream,
	"grid-stream":    gridStream,
	"serve-stream":   serveStream,
}

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"paper-offline", "cluster-stream", "grid-stream", "serve-stream"}

// subSeeds derives n independent positive sub-seeds from the run seed, so
// every generated input of a run is a function of -seed alone.
func subSeeds(seed int64, salt int64, n int) []int64 {
	r := rand.New(rand.NewSource(seed ^ salt))
	out := make([]int64, n)
	for i := range out {
		out[i] = 1 + r.Int63n(1<<62)
	}
	return out
}

// timeSetups runs the set-up the configured number of times and returns
// the median duration in seconds with the product of the last one. Every
// product but the last is handed to discard (nil when a product holds
// nothing to release) before the next set-up starts, outside the timing.
func timeSetups[T any](cfg runConfig, o *outcome, build func() (T, error), discard func(T) error) (T, error) {
	var last T
	var secs []float64
	for i := 0; i < cfg.repeats(); i++ {
		if i > 0 && discard != nil {
			if err := discard(last); err != nil {
				return last, err
			}
		}
		t0 := wall.Now()
		v, err := build()
		if err != nil {
			return last, err
		}
		secs = append(secs, since(t0)/1e3)
		last = v
	}
	o.samples["setup_s"] = secs
	o.set("setup_s", median(secs))
	return last, nil
}

// memDelta reads the allocation counters around fn.
func memDelta(fn func()) (bytes, mallocs uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// timeBox reports whether the timed phase should go on: until the budget
// is spent, and never for fewer than minReps repetitions.
func timeBox(start time.Time, seconds float64, rep, minReps int) bool {
	return rep < minReps || since(start) < seconds*1e3
}
