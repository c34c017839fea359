package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"bicriteria/internal/grid"
	"bicriteria/internal/obs"
	"bicriteria/internal/serve"
)

// TestTopCmdCannedScrapes drives the dashboard loop against a canned
// /metrics.prom endpoint whose counter advances between scrapes: two
// plain frames, rates diffed from the second scrape on.
func TestTopCmdCannedScrapes(t *testing.T) {
	var scrapes atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics.prom" {
			http.NotFound(w, r)
			return
		}
		n := scrapes.Add(1)
		fmt.Fprintf(w, "# HELP jobs_total Admitted jobs.\n# TYPE jobs_total counter\njobs_total %d\n", 10*n)
		fmt.Fprintf(w, "# HELP queue_depth Queued jobs.\n# TYPE queue_depth gauge\nqueue_depth{shard=\"0\"} 3\n")
	}))
	defer ts.Close()

	var buf bytes.Buffer
	if err := topCmd([]string{"-url", ts.URL + "/metrics.prom", "-interval", "10ms", "-n", "2", "-plain"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if got := scrapes.Load(); got != 2 {
		t.Fatalf("scraped %d times, want 2", got)
	}
	for _, want := range []string{"frame 1", "frame 2", "COUNTERS", "GAUGES",
		"jobs_total", `queue_depth{shard="0"}`} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\x1b[2J") {
		t.Error("-plain must not emit ANSI clear sequences")
	}
	// The second frame diffs the scrapes: the counter advanced, so a
	// nonzero rate column shows up after the first frame's em dashes.
	frames := strings.SplitN(out, "frame 2", 2)
	if len(frames) != 2 || !strings.Contains(frames[0], "—") {
		t.Errorf("first frame should have blank rates:\n%s", out)
	}
}

// TestTopCmdAlertsSection pins the ALERTS section: a scrape carrying the
// SLO engine's bicrit_slo_alert_firing gauges renders one state line per
// alert — FIRING for 1, resolved for 0 — ahead of the GAUGES section.
func TestTopCmdAlertsSection(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "# HELP bicrit_slo_alert_firing 1 while the named SLO alert is firing.\n"+
			"# TYPE bicrit_slo_alert_firing gauge\n"+
			`bicrit_slo_alert_firing{alert="deadline-miss-budget"} 1`+"\n"+
			`bicrit_slo_alert_firing{alert="wait-p99"} 0`+"\n"+
			"# HELP bicrit_slo_deadline_misses Jobs past their deadline.\n"+
			"# TYPE bicrit_slo_deadline_misses gauge\n"+
			"bicrit_slo_deadline_misses 7\n")
	}))
	defer ts.Close()

	var buf bytes.Buffer
	if err := topCmd([]string{"-url", ts.URL + "/metrics.prom", "-interval", "10ms", "-n", "1", "-plain"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	alertsAt := strings.Index(out, "ALERTS")
	gaugesAt := strings.Index(out, "GAUGES")
	if alertsAt < 0 || gaugesAt < 0 || alertsAt > gaugesAt {
		t.Fatalf("ALERTS section missing or not ahead of GAUGES:\n%s", out)
	}
	section := out[alertsAt:gaugesAt]
	for _, want := range []string{"deadline-miss-budget", "FIRING", "wait-p99", "resolved"} {
		if !strings.Contains(section, want) {
			t.Errorf("ALERTS section lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(section, "bicrit_slo_deadline_misses") {
		t.Errorf("non-alert gauge leaked into the ALERTS section:\n%s", section)
	}
	// The raw gauges still render among GAUGES like every other series.
	if !strings.Contains(out[gaugesAt:], "bicrit_slo_alert_firing") {
		t.Errorf("alert gauges vanished from the GAUGES section:\n%s", out)
	}
}

// TestTopCmdLiveServe is the acceptance check for the dashboard: point
// bicrit top at a real serve-layer service, submit work, and the
// rendered frames carry the service's gauges, counters and histogram
// quantiles.
func TestTopCmdLiveServe(t *testing.T) {
	srv, err := serve.NewServer(serve.Config{
		Grid:             grid.Config{Clusters: []grid.ClusterSpec{{M: 16}, {M: 16}}},
		Speedup:          1e6,
		RefreshInterval:  -1,
		SnapshotInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := strings.NewReader(`{"jobs": [
		{"id": 1, "weight": 2, "times": [60, 35, 20]},
		{"id": 2, "weight": 1, "times": [40, 25]},
		{"id": 3, "weight": 3, "times": [90, 50, 30, 20]}]}`)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bulk submit: status %d", resp.StatusCode)
	}

	var buf bytes.Buffer
	if err := topCmd([]string{"-url", ts.URL + "/metrics.prom", "-interval", "10ms", "-n", "2", "-plain"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"bicrit_serve_submitted_total",
		"bicrit_serve_jobs",
		"HISTOGRAMS", "p50", "p99",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("live dashboard lacks %q:\n%s", want, out)
		}
	}
}

// TestTopCmdErrors pins the failure modes: flag misuse, unreachable and
// non-200 endpoints, and malformed expositions all surface as errors
// instead of rendering garbage.
func TestTopCmdErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := topCmd([]string{"positional"}, &buf); err == nil {
		t.Error("positional args must fail")
	}
	if err := topCmd([]string{"-interval", "-1s"}, &buf); err == nil {
		t.Error("negative interval must fail")
	}
	if err := topCmd([]string{"-url", "http://127.0.0.1:1/metrics.prom", "-n", "1"}, &buf); err == nil {
		t.Error("unreachable endpoint must fail")
	}

	notFound := httptest.NewServer(http.NotFoundHandler())
	defer notFound.Close()
	if err := topCmd([]string{"-url", notFound.URL + "/metrics.prom", "-n", "1"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Errorf("non-200 scrape: err = %v", err)
	}

	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "this is not a prometheus exposition {{{")
	}))
	defer garbage.Close()
	if err := topCmd([]string{"-url", garbage.URL + "/metrics.prom", "-n", "1"}, &buf); err == nil {
		t.Error("malformed exposition must fail")
	}
}

// scrape renders a registry and parses it back, the exact pipeline
// bicrit top runs against GET /metrics.prom.
func scrape(t *testing.T, reg *obs.Registry) []obs.Family {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return fams
}

// topRegistry builds the first-frame registry of the golden test: a
// slice of what a live serve scrape contains.
func topRegistry(t *testing.T) (*obs.Registry, *obs.Counter, *obs.Histogram) {
	reg := obs.NewRegistry()
	reg.Gauge("bicrit_serve_virtual_now", "Virtual time.").Set(120)
	reg.Gauge("bicrit_serve_jobs", "Jobs by state.", obs.L("state", "done")).Set(9)
	reg.Gauge("bicrit_serve_jobs", "Jobs by state.", obs.L("state", "queued")).Set(3)
	sub := reg.Counter("bicrit_serve_submitted_total", "Admitted jobs.")
	sub.Add(12)
	reg.Counter("bicrit_serve_rejected_total", "Refused jobs.", obs.L("reason", "rate-limit")).Add(2)
	h := reg.Histogram("bicrit_demt_phase_seconds", "DEMT phase time.",
		obs.LogBuckets(1e-6, 10, 28), obs.L("phase", "knapsack"))
	for _, v := range []float64{0.001, 0.002, 0.002, 0.004, 0.1} {
		h.Observe(v)
	}
	return reg, sub, h
}

// TestRenderDashboardGolden pins the two-frame dashboard render: frame
// one without rates, frame two with counter and histogram rates diffed
// over a 2-second interval.
func TestRenderDashboardGolden(t *testing.T) {
	reg, sub, h := topRegistry(t)
	first := scrape(t, reg)

	// Two seconds later: 6 more jobs, 4 more knapsack observations.
	sub.Add(6)
	for _, v := range []float64{0.001, 0.003, 0.003, 0.008} {
		h.Observe(v)
	}
	second := scrape(t, reg)

	got := renderDashboard(nil, first, 0) + "---\n" + renderDashboard(first, second, 2)
	golden := filepath.Join("testdata", "top.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("dashboard drifted from %s (regenerate with -update):\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestRenderDashboardRates spot-checks the numbers behind the golden
// bytes: rates over the interval and nearest-rank quantiles from the
// scraped buckets.
func TestRenderDashboardRates(t *testing.T) {
	reg, sub, _ := topRegistry(t)
	first := scrape(t, reg)
	sub.Add(6)
	second := scrape(t, reg)

	frame := renderDashboard(first, second, 2)
	// 6 new jobs over 2 seconds.
	if !strings.Contains(frame, "bicrit_serve_submitted_total") || !strings.Contains(frame, "3") {
		t.Fatalf("submitted rate missing:\n%s", frame)
	}
	for _, want := range []string{"GAUGES", "COUNTERS", "HISTOGRAMS", "p50", "p99",
		`bicrit_serve_jobs{state="done"}`, `bicrit_demt_phase_seconds{phase="knapsack"}`} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame lacks %q:\n%s", want, frame)
		}
	}
	// First frame has no baseline: rates render as em dashes.
	if got := renderDashboard(nil, first, 0); !strings.Contains(got, "—") {
		t.Errorf("first frame should render blank rates:\n%s", got)
	}
	// A counter that went down (restart) renders "reset", never a
	// negative rate.
	reg2 := obs.NewRegistry()
	reg2.Counter("bicrit_serve_submitted_total", "Admitted jobs.").Add(1)
	if got := renderDashboard(second, scrape(t, reg2), 2); !strings.Contains(got, "reset") {
		t.Errorf("shrunk counter should render reset:\n%s", got)
	}
	if got := renderDashboard(nil, nil, 0); got != "(empty scrape)\n" {
		t.Errorf("empty scrape render: %q", got)
	}
}

// TestRenderDashboardFuzzCorpus renders every input of obs.ParseText's
// fuzz corpus that the parser accepts, so a scrape the fuzzer found
// interesting (or a committed crasher) never panics the dashboard either.
func TestRenderDashboardFuzzCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "internal", "obs", "testdata", "fuzz", "FuzzParseText", "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no FuzzParseText corpus: %v", err)
	}
	accepted := 0
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// A corpus file is the header line and one []byte("...") literal.
		_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		quoted, ok := strings.CutPrefix(lit, "[]byte(")
		if !ok {
			t.Fatalf("%s: not a []byte corpus entry", path)
		}
		data, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		fams, err := obs.ParseText(strings.NewReader(data))
		if err != nil {
			continue
		}
		accepted++
		if frame := renderDashboard(fams, fams, 1); frame == "" {
			t.Errorf("%s: empty frame", path)
		}
	}
	if accepted == 0 {
		t.Error("the parser accepts no corpus input")
	}
}
