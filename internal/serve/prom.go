package serve

import (
	"math"
	"net/http"
	"net/http/pprof"

	"bicriteria/internal/buildinfo"
	"bicriteria/internal/obs"
)

// registerServiceMetrics registers the series the background loops feed,
// so a scrape shows them from the start.
func (s *Server) registerServiceMetrics() {
	s.refreshSeconds = s.obs.Histogram("bicrit_serve_refresh_seconds",
		"Wall-clock time of one live-state refresh: feed the new arrivals, advance the trusted session, fold, finish a fork.",
		obs.TimeBuckets())
	s.refreshFed = s.obs.Counter("bicrit_serve_refresh_fed_jobs_total",
		"Jobs fed to the trusted session by refreshes: each accepted job once.")
	s.snapshotSeconds = s.obs.Histogram("bicrit_serve_snapshot_seconds",
		"Wall-clock time of one snapshot write.", obs.TimeBuckets())
}

// syncProm mirrors the server's live state into the obs registry right
// before a scrape. The timing histograms (portfolio, batch planning,
// routing) are fed directly by the federation; everything the server
// keeps under its own mutexes — admission counters, job states, the
// stretch/wait distributions recomputed over the done jobs — is pinned
// here, so a scrape always reflects the same state the JSON
// /metrics endpoint reports.
func (s *Server) syncProm() {
	r := s.obs
	r.Gauge("bicrit_build_info",
		"Build information; the value is always 1, the labels carry the versions.",
		obs.L("version", buildinfo.Version), obs.L("go", buildinfo.GoVersion())).Set(1)

	r.Gauge("bicrit_serve_virtual_now", "Current virtual time of the pacer.").Set(s.now())
	r.Gauge("bicrit_serve_speedup", "Virtual time units per wall-clock second.").Set(s.cfg.Speedup)
	r.Gauge("bicrit_serve_uptime_seconds", "Wall-clock age of the process.").
		Set(s.pacer.wall().Sub(s.started).Seconds())
	// Before the first refresh the boundary is -Inf and the lag counts
	// from virtual time 0.
	s.liveMu.RLock()
	trustedTo := math.Max(0, s.trustedTo)
	s.liveMu.RUnlock()
	r.Gauge("bicrit_serve_refresh_lag_seconds",
		"Virtual time between the pacer's now and the trusted boundary of the live state (0 once drained).").
		Set(math.Max(0, s.now()-trustedTo))

	c := s.CountersSnapshot()
	r.Counter("bicrit_serve_submitted_total", "Jobs admitted, snapshot-restored jobs included.").
		Sync(float64(c.Submitted))
	r.Counter("bicrit_serve_restored_total", "Jobs restored from a snapshot.").
		Sync(float64(c.Restored))
	rej := func(reason string, n int) {
		r.Counter("bicrit_serve_rejected_total", "Submissions refused, by reason.",
			obs.L("reason", reason)).Sync(float64(n))
	}
	rej("rate-limit", c.RejectedRate)
	rej("backlog", c.RejectedBacklog)

	counts := s.reg.stateCounts()
	for st := StateQueued; st <= StateDone; st++ {
		r.Gauge("bicrit_serve_jobs", "Admitted jobs by lifecycle state.",
			obs.L("state", st.String())).Set(float64(counts[st.String()]))
	}

	stretchHist, waitHist := s.doneHistograms()
	r.Histogram("bicrit_serve_stretch", "Per-job stretch of the completed jobs.",
		obs.LogBuckets(stretchHistLo, stretchHistHi, stretchHistBuckets)).
		SetFrom(stretchHist.Snapshot(), stretchHist.Sum())
	r.Histogram("bicrit_serve_wait_virtual_seconds",
		"Virtual wait time (start minus release) of the completed jobs.",
		obs.LogBuckets(waitHistLo, waitHistHi, waitHistBuckets)).
		SetFrom(waitHist.Snapshot(), waitHist.Sum())
}

// handlePromMetrics serves GET /metrics.prom: the obs registry in the
// Prometheus text exposition format.
func (s *Server) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	s.syncProm()
	w.Header().Set("Content-Type", obs.ContentType)
	_ = s.obs.WritePrometheus(w)
}

// versionResponse is the body of GET /version.
type versionResponse struct {
	Version string `json:"version"`
	Go      string `json:"go"`
}

// handleVersion serves GET /version.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, versionResponse{Version: buildinfo.Version, Go: buildinfo.GoVersion()})
}

// DebugHandler returns the net/http/pprof endpoints on their standard
// /debug/pprof/ paths, as an explicit mux (nothing leaks onto
// http.DefaultServeMux). The CLIs bind it to a separate listener behind
// -debug-addr, keeping profiling off the public API port.
func DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
