package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"bicriteria/internal/flight"
	"bicriteria/internal/grid"
	"bicriteria/internal/moldable"
	"bicriteria/internal/slo"
	"bicriteria/internal/stats"
)

// JobSpec is the wire form of one job submission. A zero weight means 1.
type JobSpec struct {
	ID     int       `json:"id"`
	Name   string    `json:"name,omitempty"`
	Weight float64   `json:"weight,omitempty"`
	Times  []float64 `json:"times"`
}

// task converts the spec into the scheduling model.
func (js JobSpec) task() moldable.Task {
	w := js.Weight
	if w == 0 {
		w = 1
	}
	return moldable.Task{ID: js.ID, Name: js.Name, Weight: w, Times: js.Times}
}

// submitResponse is the body of POST /jobs: the jobs admitted (with their
// virtual release stamps) and, when the request stopped early, why.
type submitResponse struct {
	Accepted []Accepted `json:"accepted"`
	// Error explains the first refusal, which halts a bulk submission;
	// jobs listed in Accepted were admitted before it.
	Error string `json:"error,omitempty"`
	// RetryAfterSeconds mirrors the Retry-After header on 429 responses.
	RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"`
}

// metricsResponse is the body of GET /metrics.
type metricsResponse struct {
	// VirtualNow is the pacer's current simulated time, Speedup its
	// virtual-seconds-per-wall-second factor and UptimeSeconds the
	// wall-clock age of the process.
	VirtualNow    float64  `json:"virtual_now"`
	Speedup       float64  `json:"speedup"`
	UptimeSeconds float64  `json:"uptime_seconds"`
	State         string   `json:"state"`
	Counters      Counters `json:"counters"`
	// JobStates counts the admitted jobs per lifecycle state, as of the
	// last refresh.
	JobStates map[string]int `json:"job_states"`
	// Grid is the grid-wide aggregate of the latest stream replay (the
	// refresher's, or the final one after drain); GridVirtualTime is the
	// virtual time that replay was evaluated at.
	Grid            *grid.Metrics `json:"grid,omitempty"`
	GridVirtualTime float64       `json:"grid_virtual_time,omitempty"`
	// StretchHistogram and WaitHistogram are log-spaced distributions over
	// the completed jobs: per-job stretch, and virtual wait time
	// (start minus release, floored at the histogram's lower bound).
	StretchHistogram stats.HistogramSnapshot `json:"stretch_histogram"`
	WaitHistogram    stats.HistogramSnapshot `json:"wait_histogram"`
	// Faults summarizes the fault-injection status when the service runs
	// under a fault plan: the plan's size and the recovery counters of the
	// latest replay. Absent on a fault-free service, keeping its /metrics
	// body byte-identical to one without the subsystem.
	Faults *faultsStatus `json:"faults,omitempty"`
}

// faultsStatus is the fault block of GET /metrics.
type faultsStatus struct {
	// PlanNodeOutages and PlanShardOutages count the windows of the
	// injected plan.
	PlanNodeOutages  int `json:"plan_node_outages"`
	PlanShardOutages int `json:"plan_shard_outages"`
	// Killed, Resubmitted, Lost, Recovered and Migrated are the grid-wide
	// recovery counters of the latest stream replay (see grid.Metrics).
	Killed      int `json:"killed"`
	Resubmitted int `json:"resubmitted"`
	Lost        int `json:"lost"`
	Recovered   int `json:"recovered"`
	Migrated    int `json:"migrated"`
}

// healthResponse is the body of GET /healthz.
type healthResponse struct {
	// Status is "ok", "draining" or "drained".
	Status     string  `json:"status"`
	VirtualNow float64 `json:"virtual_now"`
	Jobs       int     `json:"jobs"`
	// UptimeSeconds is the wall-clock age of the process.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// SnapshotAgeSeconds is the wall-clock age of the last successful
	// snapshot write — or the process age while none has been written yet,
	// so a wedged snapshot loop shows as a growing age either way. Absent
	// when snapshots are disabled.
	SnapshotAgeSeconds *float64 `json:"snapshot_age_seconds,omitempty"`
	// RefreshError and SnapshotError surface background-loop failures.
	RefreshError  string `json:"refresh_error,omitempty"`
	SnapshotError string `json:"snapshot_error,omitempty"`
}

// Fixed shapes of the /metrics histograms: stable scrape schemas matter
// more than per-deployment tuning. Stretch is dimensionless and starts at
// its floor 1; waits are in virtual time units.
const (
	stretchHistLo, stretchHistHi, stretchHistBuckets = 1, 1e4, 40
	waitHistLo, waitHistHi, waitHistBuckets          = 1e-2, 1e6, 40
)

// doneHistograms builds the /metrics distributions over the completed
// jobs: stretch, and wait floored at the histogram's lower bound.
func (s *Server) doneHistograms() (stretch, wait *stats.Histogram) {
	stretch, _ = stats.NewHistogram(stretchHistLo, stretchHistHi, stretchHistBuckets)
	wait, _ = stats.NewHistogram(waitHistLo, waitHistHi, waitHistBuckets)
	s.reg.eachDone(func(j JobStatus) {
		stretch.Observe(j.Stretch)
		wait.Observe(max(j.Wait, waitHistLo))
	})
	return stretch, wait
}

// Handler returns the HTTP API of the service:
//
//	POST /jobs                  submit one job or a bulk batch
//	GET  /jobs/{id}             live status of a job
//	GET  /jobs/{id}/timeline    the job's flight-recorder timeline
//	GET  /alerts                SLO alert states (firing and resolved)
//	GET  /metrics               counters, state counts, distributions, grid aggregate
//	GET  /metrics.prom          the same state in the Prometheus text format
//	GET  /healthz               liveness, drain state, uptime, snapshot age
//	GET  /version               build information
//	POST /drain                 graceful drain; responds with the final report
//
// Every request is stamped with a sequential request ID (echoed in the
// X-Request-Id response header) and logged to the configured logger.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/timeline", s.handleTimeline)
	mux.HandleFunc("GET /alerts", s.handleAlerts)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics.prom", s.handlePromMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /version", s.handleVersion)
	mux.HandleFunc("POST /drain", s.handleDrain)
	return s.accessLog(mux)
}

// requestID numbers the requests of this process for the access log.
var requestID atomic.Uint64

// statusRecorder captures the status code a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// accessLog stamps every request with a process-sequential ID (echoed as
// X-Request-Id) and writes one structured access-log record per request.
// With the default discard logger the wrapper only costs the stamp.
func (s *Server) accessLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := requestID.Add(1)
		w.Header().Set("X-Request-Id", strconv.FormatUint(id, 10))
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		s.logger.Info("request",
			"id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"duration", time.Since(start))
	})
}

// writeJSON writes a JSON response body.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body)
}

// decodeSpecs accepts the three submission shapes: a single job object, a
// bare array of jobs, or an object with a "jobs" array.
func decodeSpecs(body []byte) ([]JobSpec, error) {
	i := 0
	for i < len(body) && (body[i] == ' ' || body[i] == '\t' || body[i] == '\n' || body[i] == '\r') {
		i++
	}
	if i == len(body) {
		return nil, fmt.Errorf("empty request body")
	}
	if body[i] == '[' {
		var specs []JobSpec
		if err := json.Unmarshal(body, &specs); err != nil {
			return nil, err
		}
		return specs, nil
	}
	var wrapper struct {
		Jobs []JobSpec `json:"jobs"`
	}
	if err := json.Unmarshal(body, &wrapper); err == nil && len(wrapper.Jobs) > 0 {
		return wrapper.Jobs, nil
	}
	var one JobSpec
	if err := json.Unmarshal(body, &one); err != nil {
		return nil, err
	}
	return []JobSpec{one}, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, submitResponse{Error: err.Error()})
		return
	}
	specs, err := decodeSpecs(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, submitResponse{Error: err.Error()})
		return
	}
	if len(specs) == 0 {
		writeJSON(w, http.StatusBadRequest, submitResponse{Error: "no jobs in request"})
		return
	}
	// Validate everything up front so a bulk request is never admitted
	// half-way because of a malformed tail.
	seen := make(map[int]bool, len(specs))
	for i, spec := range specs {
		task := spec.task()
		if err := task.Validate(); err != nil {
			writeJSON(w, http.StatusBadRequest, submitResponse{Error: fmt.Sprintf("job %d of request: %v", i, err)})
			return
		}
		if seen[spec.ID] {
			writeJSON(w, http.StatusBadRequest, submitResponse{Error: fmt.Sprintf("duplicate job ID %d in request", spec.ID)})
			return
		}
		seen[spec.ID] = true
	}

	resp := submitResponse{Accepted: make([]Accepted, 0, len(specs))}
	for _, spec := range specs {
		acc, err := s.Submit(spec.task())
		if err == nil {
			resp.Accepted = append(resp.Accepted, acc)
			continue
		}
		status := http.StatusBadRequest
		var rej *Rejection
		var dup *DuplicateError
		switch {
		case errors.As(err, &rej):
			if rej.Reason == "draining" {
				status = http.StatusServiceUnavailable
			} else {
				status = http.StatusTooManyRequests
				secs := rej.RetryAfter.Seconds()
				resp.RetryAfterSeconds = secs
				// RFC 9110 allows Retry-After: 0, but a zero backoff (a
				// sub-second computed delay rounds down through Seconds())
				// invites clients to hammer the limiter; clamp to >= 1.
				retry := int(math.Ceil(secs))
				if retry < 1 {
					retry = 1
				}
				w.Header().Set("Retry-After", strconv.Itoa(retry))
			}
		case errors.As(err, &dup):
			status = http.StatusConflict
		}
		resp.Error = err.Error()
		writeJSON(w, status, resp)
		return
	}
	writeJSON(w, http.StatusAccepted, resp)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "job ID must be an integer"})
		return
	}
	status, ok := s.Status(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("unknown job %d", id)})
		return
	}
	writeJSON(w, http.StatusOK, status)
}

// timelineResponse is the body of GET /jobs/{id}/timeline: the job's
// flight-recorder events in total order, trusted up to the virtual time of
// the last replay. Final is true after a drain (the timeline can no longer
// change); while false, TrustedTo carries the prefix boundary. A job that
// has been admitted but not yet reached by a trusted replay shows its
// submitted event only.
type timelineResponse struct {
	Job       int            `json:"job"`
	Final     bool           `json:"final"`
	TrustedTo *float64       `json:"trusted_to,omitempty"`
	Events    []flight.Event `json:"events"`
}

func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "job ID must be an integer"})
		return
	}
	status, ok := s.Status(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("unknown job %d", id)})
		return
	}
	// The recorder, its boundary and the fork's batched jobs are read as
	// one: a refresh writes all three under the same lock.
	s.liveMu.RLock()
	at, rebatched := s.trustedTo, s.rebatched[id]
	timeline := s.flightRec.Timeline(id)
	s.liveMu.RUnlock()
	resp := timelineResponse{Job: id, Events: []flight.Event{}}
	if math.IsInf(at, 1) {
		resp.Final = true
	} else if !math.IsInf(at, -1) {
		trusted := at
		resp.TrustedTo = &trusted
	}
	for _, ev := range timeline {
		// The registry's prefix rule: an event at the margin of the capture
		// time could still change and stays provisional.
		if resp.Final || ev.Time < at-eps {
			if ev.Kind == flight.KindLost && rebatched {
				// The job's next batch is one only the fork has fired.
				ev.Kind = flight.KindResubmitted
			}
			resp.Events = append(resp.Events, ev)
		}
	}
	if len(resp.Events) == 0 {
		// Admitted but not yet inside a trusted replay: the submission
		// itself is still a fact worth reporting.
		resp.Events = append(resp.Events, flight.Event{
			Kind: flight.KindSubmitted, Job: id, Time: status.Release,
			Cluster: -1, Batch: -1,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// alertsResponse is the body of GET /alerts. Enabled reports whether an
// SLO spec is configured; with none, both alert lists are empty. Jobs and
// Misses summarize the deadline axis of the last evaluation.
type alertsResponse struct {
	Enabled  bool        `json:"enabled"`
	Jobs     int         `json:"jobs"`
	Misses   int         `json:"misses"`
	MissRate float64     `json:"miss_rate"`
	Firing   []slo.Alert `json:"firing"`
	Resolved []slo.Alert `json:"resolved"`
}

func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	resp := alertsResponse{
		Enabled:  s.cfg.SLO != nil,
		Firing:   []slo.Alert{},
		Resolved: []slo.Alert{},
	}
	s.liveMu.RLock()
	sum := s.sloSum
	s.liveMu.RUnlock()
	if sum != nil {
		resp.Jobs = sum.Jobs
		resp.Misses = sum.Misses
		resp.MissRate = sum.MissRate
		for _, a := range sum.Alerts {
			if a.Firing() {
				resp.Firing = append(resp.Firing, a)
			} else {
				resp.Resolved = append(resp.Resolved, a)
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	stretchHist, waitHist := s.doneHistograms()
	resp := metricsResponse{
		VirtualNow:       s.now(),
		Speedup:          s.cfg.Speedup,
		UptimeSeconds:    s.pacer.wall().Sub(s.started).Seconds(),
		State:            s.state(),
		Counters:         s.CountersSnapshot(),
		JobStates:        s.reg.stateCounts(),
		StretchHistogram: stretchHist.Snapshot(),
		WaitHistogram:    waitHist.Snapshot(),
	}
	s.liveMu.RLock()
	resp.Grid = s.live
	resp.GridVirtualTime = s.liveAt
	s.liveMu.RUnlock()
	if plan := s.cfg.Grid.Faults; !plan.Empty() {
		fs := &faultsStatus{PlanNodeOutages: len(plan.Nodes), PlanShardOutages: len(plan.Shards)}
		if resp.Grid != nil {
			fs.Killed = resp.Grid.Killed
			fs.Resubmitted = resp.Grid.Resubmitted
			fs.Lost = resp.Grid.Lost
			fs.Recovered = resp.Grid.Recovered
			fs.Migrated = resp.Grid.Migrated
		}
		resp.Faults = fs
	}
	writeJSON(w, http.StatusOK, resp)
}

// state derives the health-status word.
func (s *Server) state() string {
	s.liveMu.RLock()
	drained := s.final != nil
	s.liveMu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case drained:
		return "drained"
	case s.draining:
		return "draining"
	}
	return "ok"
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	now := s.pacer.wall()
	resp := healthResponse{
		Status:        s.state(),
		VirtualNow:    s.now(),
		Jobs:          s.Jobs(),
		UptimeSeconds: now.Sub(s.started).Seconds(),
	}
	s.liveMu.RLock()
	if s.cfg.SnapshotPath != "" {
		since := s.lastSnapshot
		if since.IsZero() {
			since = s.started
		}
		age := now.Sub(since).Seconds()
		resp.SnapshotAgeSeconds = &age
	}
	if s.refreshErr != nil {
		resp.RefreshError = s.refreshErr.Error()
	}
	if s.snapshotErr != nil {
		resp.SnapshotError = s.snapshotErr.Error()
	}
	s.liveMu.RUnlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	rep, err := s.Drain()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, rep)
}
