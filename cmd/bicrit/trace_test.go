package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bicriteria"
)

// traceTestScenario builds the seeded grid scenario of the trace tests.
func traceTestScenario(t *testing.T) string {
	t.Helper()
	return writeScenario(t, bicriteria.Scenario{
		Seed:     7,
		Topology: bicriteria.TopologyGrid,
		Clusters: []bicriteria.ScenarioCluster{{Machines: 16}, {Machines: 8}},
		Workload: bicriteria.ScenarioWorkload{Kind: "mixed", Jobs: 40},
		Arrivals: bicriteria.ScenarioArrivals{Rate: 5},
		Noise:    0.2,
	})
}

// TestRunTraceByteIdentical is the acceptance check of `bicrit run
// -trace`: two replays of the same seeded grid scenario emit
// byte-identical Chrome trace JSON.
func TestRunTraceByteIdentical(t *testing.T) {
	scn := traceTestScenario(t)
	dir := t.TempDir()
	render := func(name string) []byte {
		path := filepath.Join(dir, name)
		var buf bytes.Buffer
		if err := runCmd([]string{"-trace", path, scn}, &buf); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first, second := render("a.json"), render("b.json")
	if !bytes.Equal(first, second) {
		t.Fatal("two runs of the same scenario emitted different traces")
	}
	// The file is loadable Chrome trace-event JSON with named tracks.
	var trace struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(first, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", trace.DisplayTimeUnit)
	}
	kinds := map[string]int{}
	for _, ev := range trace.TraceEvents {
		kinds[ev.Ph]++
	}
	if kinds["M"] == 0 || kinds["X"] == 0 || kinds["i"] == 0 {
		t.Fatalf("trace lacks metadata, span or instant events: %v", kinds)
	}
}

// TestRunTraceSpecSection drives the trace through the scenario file's
// trace block instead of the flag, in JSONL format.
func TestRunTraceSpecSection(t *testing.T) {
	out := filepath.Join(t.TempDir(), "events.jsonl")
	scn := writeScenario(t, bicriteria.Scenario{
		Seed:     7,
		Topology: bicriteria.TopologySingle,
		Clusters: []bicriteria.ScenarioCluster{{Machines: 16}},
		Workload: bicriteria.ScenarioWorkload{Kind: "mixed", Jobs: 25},
		Arrivals: bicriteria.ScenarioArrivals{Rate: 5},
		Trace:    &bicriteria.ScenarioTrace{Path: out, Format: "jsonl"},
	})
	var buf bytes.Buffer
	if err := runCmd([]string{scn}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	batches, drains := 0, 0
	for _, line := range lines {
		var ev struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		switch ev.Kind {
		case "batch":
			batches++
		case "drain":
			drains++
		}
	}
	if batches == 0 {
		t.Fatal("JSONL trace has no batch events")
	}
	if drains != 1 {
		t.Fatalf("JSONL trace has %d drain events, want 1", drains)
	}
}

// TestRunTraceFormatNeedsTrace pins the flag validation.
func TestRunTraceFormatNeedsTrace(t *testing.T) {
	scn := traceTestScenario(t)
	var buf bytes.Buffer
	err := runCmd([]string{"-trace-format", "jsonl", scn}, &buf)
	if err == nil || !strings.Contains(err.Error(), "-trace") {
		t.Fatalf("err = %v, want a -trace-format usage error", err)
	}
}

// TestRunTraceFormatCheckedBeforeReplay pins that a bad -trace-format
// fails at Compile with the trace.format field error, before the replay
// runs and before the trace file is created.
func TestRunTraceFormatCheckedBeforeReplay(t *testing.T) {
	scn := traceTestScenario(t)
	out := filepath.Join(t.TempDir(), "out")
	var buf bytes.Buffer
	err := runCmd([]string{"-trace", out, "-trace-format", "xml", scn}, &buf)
	if err == nil || !strings.Contains(err.Error(), "trace.format") {
		t.Fatalf("err = %v, want the trace.format field error", err)
	}
	if buf.Len() != 0 {
		t.Errorf("the scenario was replayed before the format was rejected:\n%s", buf.String())
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a rejected trace format left %s behind (stat err %v)", out, err)
	}
}

// TestVersionFlag pins `bicrit -version`.
func TestVersionFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := dispatch([]string{"-version"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "bicrit ") {
		t.Fatalf("-version printed %q", buf.String())
	}
}
