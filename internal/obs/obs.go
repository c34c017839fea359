// Package obs is the metrics layer of the library: a dependency-free
// Prometheus-style metrics registry wired through every runtime layer
// (cluster, grid, serve) and the scenario runner.
//
// The registry holds counters, gauges and histograms under stable,
// fully-qualified metric names with ordered label sets, and renders them
// in the Prometheus text exposition format (WritePrometheus) with
// deterministic ordering: families sorted by name, series sorted by
// label value. Histograms reuse the log-spaced bucket geometry of
// stats.Histogram (LogBuckets), so the scrape schema matches the
// distributions the JSON /metrics endpoint already exposes. ParseText is
// the matching format validator, used by the golden tests and usable
// against any scrape body.
//
// A replay's event trace is rendered by internal/scenario from the
// finished report.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"bicriteria/internal/stats"
)

// Label is one name/value pair of a metric series. Labels are rendered
// in the order they were supplied, which must therefore be consistent
// across lookups of the same family.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for building a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// MetricType is the exposition TYPE of a family.
type MetricType string

// Metric types of the text exposition format.
const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// Registry holds metric families and renders them as Prometheus text.
// The zero value is not usable; build with NewRegistry. All methods are
// safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one named metric family: a type, a help line and its series.
type family struct {
	name    string
	help    string
	typ     MetricType
	bounds  []float64 // histogram families only: shared bucket bounds
	series  map[string]metric
	ordered []string // series keys in creation order, sorted at render
}

// metric is one series of a family.
type metric interface {
	labels() []Label
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns the family, creating it on first use, and checks that
// later lookups agree on the type (a name registered as a counter cannot
// come back as a gauge).
func (r *Registry) lookup(name, help string, typ MetricType) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]metric)}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	return f
}

// seriesKey renders the label values into the map key that identifies a
// series inside its family.
func seriesKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}

// Counter returns the counter series of the family, creating family and
// series on first use. Counters are cumulative and must only go up.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, TypeCounter)
	key := seriesKey(labels)
	if m, ok := f.series[key]; ok {
		return m.(*Counter)
	}
	c := &Counter{lbl: labels}
	f.series[key] = c
	f.ordered = append(f.ordered, key)
	return c
}

// Gauge returns the gauge series of the family, creating family and
// series on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, TypeGauge)
	key := seriesKey(labels)
	if m, ok := f.series[key]; ok {
		return m.(*Gauge)
	}
	g := &Gauge{lbl: labels}
	f.series[key] = g
	f.ordered = append(f.ordered, key)
	return g
}

// Histogram returns the histogram series of the family, creating family
// and series on first use. The bounds are the strictly increasing upper
// bucket bounds (an implicit +Inf bucket is always appended); every
// series of one family shares the bounds of the first registration.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, TypeHistogram)
	if f.bounds == nil {
		for i := 1; i < len(bounds); i++ {
			if !(bounds[i] > bounds[i-1]) {
				panic(fmt.Sprintf("obs: histogram %q bounds are not strictly increasing", name))
			}
		}
		f.bounds = append([]float64(nil), bounds...)
	}
	key := seriesKey(labels)
	if m, ok := f.series[key]; ok {
		return m.(*Histogram)
	}
	h := &Histogram{lbl: labels, bounds: f.bounds, counts: make([]uint64, len(f.bounds)+1)}
	f.series[key] = h
	f.ordered = append(f.ordered, key)
	return h
}

// Counter is a monotone cumulative metric.
type Counter struct {
	mu  sync.Mutex
	lbl []Label
	v   float64
}

func (c *Counter) labels() []Label { return c.lbl }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative or NaN deltas are ignored (a
// counter never goes down).
func (c *Counter) Add(delta float64) {
	if !(delta > 0) {
		return
	}
	c.mu.Lock()
	c.v += delta
	c.mu.Unlock()
}

// Sync pins the counter to an externally maintained monotone total (the
// serve layer keeps its admission counters under its own mutex and
// mirrors them at scrape time). Values below the current one are
// ignored, preserving monotonicity.
func (c *Counter) Sync(total float64) {
	c.mu.Lock()
	if total > c.v {
		c.v = total
	}
	c.mu.Unlock()
}

// value returns the current total.
func (c *Counter) value() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	mu  sync.Mutex
	lbl []Label
	v   float64
}

func (g *Gauge) labels() []Label { return g.lbl }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// value returns the current value.
func (g *Gauge) value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram is a cumulative-bucket distribution metric: counts of
// samples at or below each upper bound, plus sum and count, rendered in
// the Prometheus histogram convention.
type Histogram struct {
	mu     sync.Mutex
	lbl    []Label
	bounds []float64 // upper bounds; +Inf is implicit at the end
	counts []uint64  // len(bounds)+1; per-bucket (non-cumulative) counts
	sum    float64
	n      uint64
}

func (h *Histogram) labels() []Label { return h.lbl }

// Observe adds one sample. NaN samples are ignored.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: the bucket with le >= v
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// SetFrom replaces the histogram's contents with a stats.Histogram
// snapshot whose bucket shape matches the bounds this histogram was
// registered with (LogBuckets of the same lo/hi/buckets): underflow
// lands in the first bucket, overflow in +Inf. The serve layer uses this
// to mirror its recomputed-per-scrape JSON distributions into the
// Prometheus registry; the mirrored totals only ever grow (done jobs
// never leave the set), so the rendered series stays monotone.
func (h *Histogram) SetFrom(snap stats.HistogramSnapshot, sum float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.counts[0] = uint64(snap.Under)
	for i, b := range snap.Buckets {
		if i+1 < len(h.counts) {
			h.counts[i+1] += uint64(b.Count)
		} else {
			h.counts[len(h.counts)-1] += uint64(b.Count)
		}
	}
	h.counts[len(h.counts)-1] += uint64(snap.Over)
	h.n = uint64(snap.Count)
	h.sum = sum
}

// snapshot returns cumulative bucket counts (one per bound, then +Inf),
// the sum and the total count.
func (h *Histogram) snapshot() ([]uint64, float64, uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := make([]uint64, len(h.counts))
	run := uint64(0)
	for i, c := range h.counts {
		run += c
		cum[i] = run
	}
	return cum, h.sum, h.n
}

// LogBuckets returns the upper bucket bounds of a log-spaced histogram
// covering [lo, hi) with the given bucket count — the exact bucket
// geometry of stats.NewHistogram(lo, hi, buckets), with lo itself
// prepended so a Prometheus first bucket captures what stats counts as
// underflow. The returned slice has buckets+1 bounds; the +Inf bucket
// the registry appends captures the overflow.
func LogBuckets(lo, hi float64, buckets int) []float64 {
	ratio := math.Pow(hi/lo, 1/float64(buckets))
	bounds := make([]float64, buckets+1)
	bounds[0] = lo
	for i := 1; i <= buckets; i++ {
		bounds[i] = lo * math.Pow(ratio, float64(i))
	}
	return bounds
}

// TimeBuckets is the standard latency bucket shape of the hot-path
// timing histograms: 1µs to 10s in 28 log-spaced buckets. Every call
// returns the same slice, computed once, because the hot path asks for it
// on every observation: callers must not modify it (Registry.Histogram
// copies the bounds when it creates a family).
func TimeBuckets() []float64 { return timeBuckets }

var timeBuckets = LogBuckets(1e-6, 10, 28)

// PhaseTimer returns a phase-labeled timing callback over one histogram
// family: calling the function observes seconds under {label: phase}.
// It is the hook shape core.Options.Timing expects, letting the DEMT
// internals record knapsack and compaction time without importing obs.
func (r *Registry) PhaseTimer(name, help, label string) func(phase string, seconds float64) {
	return func(phase string, seconds float64) {
		r.Histogram(name, help, TimeBuckets(), L(label, phase)).Observe(seconds)
	}
}
