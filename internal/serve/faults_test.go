package serve

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bicriteria/internal/faults"
	"bicriteria/internal/grid"
)

// faultedGrid is a single-shard grid whose only processor dies at virtual
// time 3 and is repaired at 5.
func faultedGrid() grid.Config {
	return grid.Config{
		Clusters: []grid.ClusterSpec{{M: 1}},
		Routing:  grid.LeastBacklog(),
		Faults: &faults.Plan{
			Nodes: []faults.NodeOutage{{Cluster: 0, Proc: 0, Start: 3, End: 5}},
		},
	}
}

func TestServeResubmittedLifecycle(t *testing.T) {
	s, clock := newTestServer(t, func(c *Config) { c.Grid = faultedGrid() })
	defer s.Drain()
	// A 10-unit job at vnow 0: it starts at 0, dies at 3, replans around
	// the repair window and reruns on [5, 15].
	if _, err := s.Submit(seqTask(1, 10)); err != nil {
		t.Fatal(err)
	}
	clock.advance(4 * time.Second) // vnow = 4: killed at 3, retry pending
	if err := s.refresh(); err != nil {
		t.Fatal(err)
	}
	st, ok := s.Status(1)
	if !ok {
		t.Fatal("job unknown")
	}
	if st.State != StateResubmitted {
		t.Fatalf("state at vnow 4 = %s, want resubmitted", st.State)
	}
	if st.Resubmissions != 1 {
		t.Fatalf("resubmissions = %d, want 1", st.Resubmissions)
	}
	counts := s.reg.stateCounts()
	if counts["resubmitted"] != 1 {
		t.Fatalf("state counts %v, want 1 resubmitted", counts)
	}

	clock.advance(20 * time.Second) // vnow = 24: retry done at 15
	if err := s.refresh(); err != nil {
		t.Fatal(err)
	}
	st, _ = s.Status(1)
	if st.State != StateDone {
		t.Fatalf("state at vnow 24 = %s, want done", st.State)
	}
	if st.End != 15 {
		t.Fatalf("retry completion at %g, want 15", st.End)
	}
	if st.Resubmissions != 1 {
		t.Fatalf("resubmissions after completion = %d, want 1", st.Resubmissions)
	}
}

func TestServeMetricsFaultsBlock(t *testing.T) {
	s, clock := newTestServer(t, func(c *Config) { c.Grid = faultedGrid() })
	defer s.Drain()
	if _, err := s.Submit(seqTask(1, 10)); err != nil {
		t.Fatal(err)
	}
	clock.advance(4 * time.Second)
	if err := s.refresh(); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/metrics", nil)
	s.Handler().ServeHTTP(rec, req)
	var resp metricsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Faults == nil {
		t.Fatal("faulted service reports no faults block")
	}
	if resp.Faults.PlanNodeOutages != 1 || resp.Faults.Killed != 1 || resp.Faults.Resubmitted != 1 {
		t.Fatalf("unexpected faults block %+v", resp.Faults)
	}
	if !strings.Contains(rec.Body.String(), `"resubmitted": 1`) {
		t.Fatal("job state counts do not surface the resubmitted state")
	}
}

func TestServeFaultFreeMetricsOmitFaultsBlock(t *testing.T) {
	s, _ := newTestServer(t, nil)
	defer s.Drain()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if strings.Contains(rec.Body.String(), `"faults"`) {
		t.Fatal("fault-free /metrics body mentions faults")
	}
	var resp metricsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Faults != nil {
		t.Fatal("fault-free service decoded a faults block")
	}
}

func TestServeDrainFinalizesFaultedJobs(t *testing.T) {
	s, clock := newTestServer(t, func(c *Config) { c.Grid = faultedGrid() })
	if _, err := s.Submit(seqTask(1, 10)); err != nil {
		t.Fatal(err)
	}
	clock.advance(time.Second)
	rep, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.Killed != 1 || rep.Metrics.Recovered != 1 || rep.Metrics.Lost != 0 {
		t.Fatalf("final report fault counters %+v", rep.Metrics)
	}
	st, _ := s.Status(1)
	if st.State != StateDone || st.Resubmissions != 1 {
		t.Fatalf("drained job state %s resubmissions %d, want done/1", st.State, st.Resubmissions)
	}
}
