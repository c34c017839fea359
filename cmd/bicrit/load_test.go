package main

import (
	"bytes"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bicriteria"
	"bicriteria/internal/workload"
)

// newLoadTarget starts an in-process scheduler service on clusters of the
// given sizes and returns it with its HTTP front.
func newLoadTarget(t *testing.T, speedup float64, sizes ...int) (*bicriteria.ServeServer, *httptest.Server) {
	t.Helper()
	specs := make([]bicriteria.GridClusterSpec, len(sizes))
	for i, m := range sizes {
		specs[i] = bicriteria.GridClusterSpec{M: m}
	}
	server, err := bicriteria.NewServeServer(bicriteria.ServeConfig{
		Grid:            bicriteria.GridConfig{Clusters: specs, Routing: bicriteria.GridLeastBacklog()},
		Speedup:         speedup,
		RefreshInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.Handler())
	t.Cleanup(ts.Close)
	return server, ts
}

// TestLoadAgainstLiveServer drives bicrit load against a real in-process
// scheduler service: first a scenario replaying a saved arrival file,
// then a scenario with a generated stream in bulk posts, drained through
// -drain.
func TestLoadAgainstLiveServer(t *testing.T) {
	// A scenario whose stream is a saved arrival file.
	serverA, tsA := newLoadTarget(t, 100_000, 16, 8)
	defer serverA.Drain()
	arrivals, err := workload.GenerateArrivals(workload.ArrivalConfig{
		Workload: workload.Config{Kind: workload.Cirne, M: 16, N: 20, Seed: 4},
		Rate:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := filepath.Join(t.TempDir(), "stream.json")
	if err := workload.SaveArrivals(stream, 16, arrivals); err != nil {
		t.Fatal(err)
	}
	fromFile := writeScenario(t, bicriteria.Scenario{
		Clusters: []bicriteria.ScenarioCluster{{Machines: 16}},
		Arrivals: bicriteria.ScenarioArrivals{File: stream},
	})
	var buf bytes.Buffer
	if err := loadCmd([]string{"-target", tsA.URL, fromFile}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "replayed 20 jobs") {
		t.Fatalf("unexpected replay output: %s", buf.String())
	}

	// A generated stream, bulk posts, then drain through the generator.
	serverB, tsB := newLoadTarget(t, 100_000, 16, 8)
	generated := writeScenario(t, bicriteria.Scenario{
		Seed:     5,
		Clusters: []bicriteria.ScenarioCluster{{Machines: 16}, {Machines: 8}},
		Workload: bicriteria.ScenarioWorkload{Kind: "mixed", Jobs: 24},
		Arrivals: bicriteria.ScenarioArrivals{Rate: 6},
		Service:  &bicriteria.ScenarioService{Speedup: 100_000},
	})
	buf.Reset()
	if err := loadCmd([]string{"-target", tsB.URL, "-bulk", "6", "-drain", generated}, &buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, "replayed 24 jobs") {
		t.Fatalf("unexpected replay output: %s", got)
	}
	if !strings.Contains(got, "drained 24 jobs") {
		t.Fatalf("drain summary missing or wrong: %s", got)
	}
	if !serverB.Drained() {
		t.Fatal("server not drained after -drain replay")
	}
}

// TestLoadPacesSubmissions checks that the scenario's service speedup
// spreads the submissions over wall time: a stream of about 10 virtual
// units at speedup 100 must take about 100ms, and at least 20ms.
func TestLoadPacesSubmissions(t *testing.T) {
	server, ts := newLoadTarget(t, 100, 8)
	defer server.Drain()
	path := writeScenario(t, bicriteria.Scenario{
		Seed:     6,
		Clusters: []bicriteria.ScenarioCluster{{Machines: 8}},
		Workload: bicriteria.ScenarioWorkload{Kind: "cirne", Jobs: 20},
		Arrivals: bicriteria.ScenarioArrivals{Rate: 2},
		Service:  &bicriteria.ScenarioService{Speedup: 100},
	})
	var buf bytes.Buffer
	start := time.Now()
	if err := loadCmd([]string{"-target", ts.URL, path}, &buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("paced replay finished in %s, too fast to have paced at all", elapsed)
	}
}

// TestLoadErrors pins load's argument handling.
func TestLoadErrors(t *testing.T) {
	path := writeScenario(t, bicriteria.Scenario{
		Clusters: []bicriteria.ScenarioCluster{{Machines: 8}},
		Workload: bicriteria.ScenarioWorkload{Jobs: 1},
		Arrivals: bicriteria.ScenarioArrivals{Rate: 1},
	})
	for _, args := range [][]string{
		{path},
		{"-target", "http://127.0.0.1:1"},
		{"-target", "http://127.0.0.1:1", filepath.Join(t.TempDir(), "absent.json")},
	} {
		if err := loadCmd(args, &bytes.Buffer{}); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}
