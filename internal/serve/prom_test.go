package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"bicriteria/internal/buildinfo"
	"bicriteria/internal/obs"
)

// promNames are the metric families GET /metrics.prom must always
// expose; dashboards and scrape configs depend on them, so renames are
// breaking changes.
var promNames = []string{
	"bicrit_build_info",
	"bicrit_serve_virtual_now",
	"bicrit_serve_speedup",
	"bicrit_serve_uptime_seconds",
	"bicrit_serve_submitted_total",
	"bicrit_serve_restored_total",
	"bicrit_serve_rejected_total",
	"bicrit_serve_jobs",
	"bicrit_serve_stretch",
	"bicrit_serve_wait_virtual_seconds",
	"bicrit_serve_refresh_seconds",
	"bicrit_serve_refresh_fed_jobs_total",
	"bicrit_serve_refresh_lag_seconds",
	"bicrit_serve_snapshot_seconds",
}

// TestPromMetricsValidAndStable is the golden contract of the scrape
// endpoint: /metrics.prom parses as valid Prometheus text exposition
// with zero errors and carries the stable family set.
func TestPromMetricsValidAndStable(t *testing.T) {
	s, clock := newTestServer(t, func(c *Config) { c.Speedup = 100 })
	defer s.Drain()
	for i := 0; i < 6; i++ {
		if _, err := s.Submit(seqTask(i, 5)); err != nil {
			t.Fatal(err)
		}
		clock.advance(50 * time.Millisecond)
	}
	s.refresh()

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics.prom = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	families, err := obs.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("scrape is not valid Prometheus text: %v\n%s", err, body)
	}
	have := map[string]bool{}
	for _, f := range families {
		have[f.Name] = true
	}
	for _, want := range promNames {
		if !have[want] {
			t.Errorf("scrape is missing family %s", want)
		}
	}
	// The portfolio instrumentation flows through the shared registry once
	// batches have committed; with per-algorithm labels.
	if !have["bicrit_portfolio_algorithm_seconds"] {
		t.Error("scrape is missing bicrit_portfolio_algorithm_seconds (shard instrumentation not wired)")
	}
	if !strings.Contains(string(body), `algorithm="demt"`) {
		t.Error(`scrape has no algorithm="demt" series in the portfolio latency histogram`)
	}

	// The quantile pipeline bicrit top runs on every frame: the parsed
	// rows must regroup into coherent histogram series whose quantile
	// estimates are monotone, positive and inside the bucket range.
	var hists []obs.ScrapeHistogram
	for _, f := range families {
		if f.Type != "histogram" {
			continue
		}
		rows := obs.HistogramRows(f)
		if len(rows) == 0 {
			t.Errorf("histogram family %s yields no series from its rows", f.Name)
		}
		hists = append(hists, rows...)
	}
	for _, h := range hists {
		if h.Count == 0 {
			continue
		}
		p50, p99 := h.Quantile(0.5), h.Quantile(0.99)
		if !(p50 > 0) || p99 < p50 {
			t.Errorf("quantiles not monotone positive: p50=%g p99=%g (%v)", p50, p99, h.Labels)
		}
	}
}

// TestPromMetricsDeterministicBytes checks two consecutive scrapes with
// no intervening activity render identical bytes: stable family and
// label ordering, no map-iteration jitter.
func TestPromMetricsDeterministicBytes(t *testing.T) {
	s, _ := newTestServer(t, nil)
	defer s.Drain()
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(seqTask(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	// The queue collectors drain asynchronously; a scrape racing them
	// reports a different queue depth.
	for s.streamLen() < 3 {
		runtime.Gosched()
	}
	scrape := func() []byte {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics.prom", nil))
		return rec.Body.Bytes()
	}
	a, b := scrape(), scrape()
	if !bytes.Equal(a, b) {
		t.Fatalf("consecutive scrapes differ:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

// TestRefreshLagGauge pins bicrit_serve_refresh_lag_seconds at its three
// phases: before the first refresh it reads the virtual now, after a
// refresh the virtual time since that refresh, and 0 once drained.
func TestRefreshLagGauge(t *testing.T) {
	s, clock := newTestServer(t, func(c *Config) { c.Speedup = 100 })
	lag := func() float64 {
		t.Helper()
		s.syncProm()
		return counterSum(t, s.obs, "bicrit_serve_refresh_lag_seconds")
	}
	if _, err := s.Submit(seqTask(0, 5)); err != nil {
		t.Fatal(err)
	}
	clock.advance(50 * time.Millisecond)
	if got, want := lag(), s.now(); got != want || want <= 0 {
		t.Fatalf("lag before the first refresh = %g, want the virtual now %g", got, want)
	}
	if err := s.refresh(); err != nil {
		t.Fatal(err)
	}
	refreshedAt := s.now()
	clock.advance(30 * time.Millisecond)
	if got, want := lag(), s.now()-refreshedAt; math.Abs(got-want) > 1e-9 || want <= 0 {
		t.Fatalf("lag after a refresh = %g, want %g", got, want)
	}
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	clock.advance(30 * time.Millisecond)
	if got := lag(); got != 0 {
		t.Fatalf("lag after the drain = %g, want 0", got)
	}
}

// TestVersionEndpoint pins GET /version.
func TestVersionEndpoint(t *testing.T) {
	s, _ := newTestServer(t, nil)
	defer s.Drain()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/version", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /version = %d, want 200", rec.Code)
	}
	var v versionResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	if v.Version != buildinfo.Version {
		t.Fatalf("version = %q, want %q", v.Version, buildinfo.Version)
	}
	if v.Go == "" {
		t.Fatal("go version is empty")
	}
}

// TestHealthzUptimeAndSnapshotAge checks the enriched health payload:
// uptime tracks the fake clock, and the snapshot age appears only when
// snapshotting is configured.
func TestHealthzUptimeAndSnapshotAge(t *testing.T) {
	health := func(s *Server) healthResponse {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /healthz = %d, want 200", rec.Code)
		}
		var h healthResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
			t.Fatal(err)
		}
		return h
	}

	s, clock := newTestServer(t, nil)
	defer s.Drain()
	clock.advance(90 * time.Second)
	h := health(s)
	if h.UptimeSeconds < 89 || h.UptimeSeconds > 91 {
		t.Fatalf("uptime = %g, want ~90", h.UptimeSeconds)
	}
	if h.SnapshotAgeSeconds != nil {
		t.Fatal("snapshot age set without a snapshot path")
	}

	path := t.TempDir() + "/snap.json"
	s2, clock2 := newTestServer(t, func(c *Config) { c.SnapshotPath = path })
	defer s2.Drain()
	clock2.advance(30 * time.Second)
	h2 := health(s2)
	if h2.SnapshotAgeSeconds == nil {
		t.Fatal("snapshot age missing with a snapshot path configured")
	}
	// No snapshot written yet: the age falls back to the process start.
	if *h2.SnapshotAgeSeconds < 29 || *h2.SnapshotAgeSeconds > 31 {
		t.Fatalf("snapshot age before first snapshot = %g, want ~30 (age of the process)", *h2.SnapshotAgeSeconds)
	}
	if err := s2.writeSnapshot(); err != nil {
		t.Fatal(err)
	}
	clock2.advance(5 * time.Second)
	h3 := health(s2)
	if *h3.SnapshotAgeSeconds < 4 || *h3.SnapshotAgeSeconds > 6 {
		t.Fatalf("snapshot age after a snapshot = %g, want ~5", *h3.SnapshotAgeSeconds)
	}
}
