package scenario

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestScenarioRoundTrip pins Write → Read identity for a spec exercising
// every section.
func TestScenarioRoundTrip(t *testing.T) {
	s := Scenario{
		Version:  Version,
		Name:     "round-trip",
		Seed:     9,
		Topology: TopologyGrid,
		Clusters: []Cluster{
			{Machines: 32, Reservations: []Reservation{{Procs: 4, Start: 10, End: 40}}},
			{Machines: 16},
		},
		Workload:  Workload{Kind: "cirne", Jobs: 42, Seed: 5},
		Arrivals:  Arrivals{Rate: 3.5, Burst: 4, Interarrival: "lognormal", InterarrivalShape: 1.1, RuntimeTail: "weibull", RuntimeTailShape: 0.6},
		Batch:     Batch{Policy: "adaptive", WorkFactor: 6, MaxDelay: 30},
		Objective: Objective{Kind: "combined", Alpha: 0.25},
		Routing:   Routing{Policy: "moldability", AdmitBacklog: 40},
		Noise:     0.15,
		Faults: &Faults{
			Seed: 77, MTBF: 20, Repair: 4, ShardMTBF: 100, Replan: "checkpoint",
			CheckpointCredit: 0.5, MaxRetries: 2,
		},
		Service: &Service{Speedup: 60, SubmitRate: 100, AdmitBacklog: 50, SnapshotPath: "snap.json"},
	}
	var buf bytes.Buffer
	if err := WriteScenario(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := readScenario(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip drifted:\nwrote %+v\nread  %+v", s, got)
	}
}

// TestSaveLoadScenario round-trips through a file path.
func TestSaveLoadScenario(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scn.json")
	s := base()
	s.Name = "file"
	if err := SaveScenario(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "file" || got.Topology != TopologyGrid || len(got.Clusters) != 2 {
		t.Fatalf("loaded scenario drifted: %+v", got)
	}
}

// TestReadRejectsUnknownVersion pins the version check.
func TestReadRejectsUnknownVersion(t *testing.T) {
	_, err := readScenario(strings.NewReader(`{
		"version": 2,
		"topology": "single",
		"clusters": [{"machines": 8}],
		"workload": {"jobs": 1},
		"arrivals": {"rate": 1}
	}`))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version accepted (err: %v)", err)
	}
	if _, err := readScenario(strings.NewReader(`{
		"topology": "single",
		"clusters": [{"machines": 8}],
		"workload": {"jobs": 1},
		"arrivals": {"rate": 1}
	}`)); err == nil {
		t.Fatal("missing version accepted")
	}
}

// TestReadRejectsUnknownFields pins that a typoed knob fails loudly
// instead of silently running the default.
func TestReadRejectsUnknownFields(t *testing.T) {
	for _, doc := range []string{
		`{"version": 1, "topolgy": "grid", "clusters": [{"machines": 8}], "workload": {"jobs": 1}, "arrivals": {"rate": 1}}`,
		`{"version": 1, "topology": "grid", "clusters": [{"machines": 8, "reserved": 2}], "workload": {"jobs": 1}, "arrivals": {"rate": 1}}`,
		`{"version": 1, "topology": "grid", "clusters": [{"machines": 8}], "workload": {"jobs": 1}, "arrivals": {"rate": 1, "ratee": 2}}`,
	} {
		if _, err := readScenario(strings.NewReader(doc)); err == nil {
			t.Fatalf("unknown field accepted in %s", doc)
		}
	}
}

// TestReadRejectsTrailingBytes: a second document or garbage after the
// scenario fails to decode instead of being ignored.
func TestReadRejectsTrailingBytes(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteScenario(&buf, base()); err != nil {
		t.Fatal(err)
	}
	if _, err := readScenario(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("a written scenario fails to read: %v", err)
	}
	for _, tail := range []string{`{"seed": 99} trailing garbage`, "x", "{"} {
		_, err := readScenario(strings.NewReader(buf.String() + tail))
		if err == nil || !strings.HasPrefix(err.Error(), "scenario: cannot decode scenario: ") {
			t.Fatalf("trailing %q: error %v, want a decode failure", tail, err)
		}
	}
}

// TestWriteValidates pins that a bad spec cannot be serialized at all.
func TestWriteValidates(t *testing.T) {
	s := base()
	s.Clusters[0].Machines = 0
	if err := WriteScenario(&bytes.Buffer{}, s); err == nil {
		t.Fatal("invalid scenario serialized")
	}
}
