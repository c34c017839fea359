package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bicriteria/internal/flight"
	"bicriteria/internal/grid"
	"bicriteria/internal/slo"
)

func getStatusJSON(t *testing.T, ts *httptest.Server, path string, wantStatus int, into any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s = %d, want %d", path, resp.StatusCode, wantStatus)
	}
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", path, err)
		}
	}
}

// TestTimelineEndpointContract pins the GET /jobs/{id}/timeline contract:
// 400 for a non-integer ID, 404 for an unknown job, a submitted-only
// provisional timeline for a job no trusted replay has reached yet, and
// the full lifecycle with final=true after a drain.
func TestTimelineEndpointContract(t *testing.T) {
	s, clock := newTestServer(t, func(c *Config) { c.Speedup = 100 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	getStatusJSON(t, ts, "/jobs/nope/timeline", http.StatusBadRequest, nil)
	getStatusJSON(t, ts, "/jobs/99/timeline", http.StatusNotFound, nil)

	if _, err := s.Submit(seqTask(1, 10)); err != nil {
		t.Fatal(err)
	}

	// Admitted but never replayed: the timeline reports the submission
	// itself and nothing more — the not-yet-batched contract.
	var provisional timelineResponse
	getStatusJSON(t, ts, "/jobs/1/timeline", http.StatusOK, &provisional)
	if provisional.Final {
		t.Error("timeline final before any drain")
	}
	if len(provisional.Events) != 1 || provisional.Events[0].Kind != flight.KindSubmitted {
		t.Fatalf("provisional timeline = %+v, want exactly one submitted event", provisional.Events)
	}
	if provisional.Events[0].Cluster != -1 || provisional.Events[0].Batch != -1 {
		t.Errorf("submitted event carries a placement: %+v", provisional.Events[0])
	}

	clock.advance(time.Second) // 100 virtual units: the job is long done
	s.refresh()

	var refreshed timelineResponse
	getStatusJSON(t, ts, "/jobs/1/timeline", http.StatusOK, &refreshed)
	if refreshed.Final {
		t.Error("timeline final after a refresh (only drain finalizes)")
	}
	if refreshed.TrustedTo == nil || *refreshed.TrustedTo <= 0 {
		t.Errorf("TrustedTo = %v, want the positive capture time", refreshed.TrustedTo)
	}

	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	var final timelineResponse
	getStatusJSON(t, ts, "/jobs/1/timeline", http.StatusOK, &final)
	if !final.Final {
		t.Error("timeline not final after drain")
	}
	if final.TrustedTo != nil {
		t.Errorf("final timeline still carries TrustedTo = %g", *final.TrustedTo)
	}
	want := []flight.Kind{flight.KindSubmitted, flight.KindRouted, flight.KindBatched,
		flight.KindPlanned, flight.KindStarted, flight.KindDone}
	var got []flight.Kind
	for _, ev := range final.Events {
		got = append(got, ev.Kind)
	}
	if len(got) != len(want) {
		t.Fatalf("final stages = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("final stages = %v, want %v", got, want)
		}
	}
	for _, ev := range final.Events {
		if ev.Kind == flight.KindBatched && ev.Winner == "" {
			t.Errorf("batched event lost its winner: %+v", ev)
		}
		if ev.Kind == flight.KindRouted && len(ev.Verdicts) == 0 {
			t.Errorf("routed event lost its verdicts: %+v", ev)
		}
	}
}

// TestAlertsEndpoint drives a single-processor cluster into deterministic
// deadline misses (three serialized jobs under deadline factor 1: only
// the first can meet release + pmin) and checks GET /alerts reports the
// firing deadline-miss-budget alert, plus the enabled=false shape when no
// SLO spec is configured.
func TestAlertsEndpoint(t *testing.T) {
	noSLO, _ := newTestServer(t, nil)
	defer noSLO.Drain()
	ts0 := httptest.NewServer(noSLO.Handler())
	defer ts0.Close()
	var disabled alertsResponse
	getStatusJSON(t, ts0, "/alerts", http.StatusOK, &disabled)
	if disabled.Enabled || len(disabled.Firing) != 0 || len(disabled.Resolved) != 0 {
		t.Fatalf("no-SLO /alerts = %+v, want enabled=false with empty lists", disabled)
	}

	s, clock := newTestServer(t, func(c *Config) {
		c.Speedup = 1000
		c.Grid = grid.Config{Clusters: []grid.ClusterSpec{{M: 1}}}
		c.SLO = &slo.Spec{DeadlineFactor: 1, MissBudget: 0.5}
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 1; i <= 3; i++ {
		if _, err := s.Submit(seqTask(i, 10)); err != nil {
			t.Fatal(err)
		}
	}
	clock.advance(time.Second) // 1000 virtual units
	s.refresh()

	var alerts alertsResponse
	getStatusJSON(t, ts, "/alerts", http.StatusOK, &alerts)
	if !alerts.Enabled {
		t.Fatal("SLO-configured server reports enabled=false")
	}
	if alerts.Jobs != 3 {
		t.Fatalf("evaluated jobs = %d, want 3", alerts.Jobs)
	}
	// One processor serializes the batch: jobs 2 and 3 wait behind job 1
	// and blow their release+1*pmin deadlines. 2/3 > the 0.5 budget.
	if alerts.Misses != 2 {
		t.Fatalf("misses = %d, want 2", alerts.Misses)
	}
	found := false
	for _, a := range alerts.Firing {
		if a.Name == "deadline-miss-budget" {
			found = true
			if a.Value <= a.Threshold {
				t.Errorf("firing alert value %g <= threshold %g", a.Value, a.Threshold)
			}
		}
	}
	if !found {
		t.Fatalf("deadline-miss-budget not firing: %+v", alerts)
	}

	// The alert gauge rides the shared Prometheus exposition for bicrit top.
	resp, err := ts.Client().Get(ts.URL + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if want := `bicrit_slo_alert_firing{alert="deadline-miss-budget"} 1`; !strings.Contains(string(body), want) {
		t.Errorf("scrape lacks %q", want)
	}
}
