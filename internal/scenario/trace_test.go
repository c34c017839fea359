package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"bicriteria/internal/cluster"
	"bicriteria/internal/grid"
	"bicriteria/internal/obs"
)

// traceScenario is the seeded grid scenario of the determinism tests:
// heavy faults so every event kind (batches, decisions, kills,
// migrations) appears in the stream.
func traceScenario(sequential bool) Scenario {
	return Scenario{
		Version:    Version,
		Seed:       11,
		Topology:   TopologyGrid,
		Clusters:   []Cluster{{Machines: 16}, {Machines: 8}, {Machines: 8}},
		Workload:   Workload{Kind: "mixed", Jobs: 50},
		Arrivals:   Arrivals{Rate: 6, Burst: 4},
		Noise:      0.2,
		Faults:     &Faults{MTBF: 10, Repair: 4, ShardMTBF: 12, ShardRepair: 8},
		Sequential: sequential,
	}
}

// faultedSingleScenario is a heavily faulted single-cluster scenario: its
// batches suffer kills.
func faultedSingleScenario() Scenario {
	return Scenario{
		Version:  Version,
		Seed:     3,
		Topology: TopologySingle,
		Clusters: []Cluster{{Machines: 16}},
		Workload: Workload{Kind: "mixed", Jobs: 60},
		Arrivals: Arrivals{Rate: 8},
		Faults:   &Faults{MTBF: 8, Repair: 3},
	}
}

// referenceScenarios are the runs the report-based renderers are held to
// their streaming references on: every event kind, the hostile racing
// end of the configuration space, and the single topology.
func referenceScenarios() []compileRow {
	return []compileRow{
		{"faulted-grid", traceScenario(false)},
		{"racing-stress", racingStressScenario()},
		{"faulted-single", faultedSingleScenario()},
	}
}

// renderTrace replays the scenario and renders its trace in the given
// format.
func renderTrace(t *testing.T, s Scenario, format string) ([]byte, *Report) {
	t.Helper()
	r, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, format, rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rep
}

// update rewrites the trace goldens: go test ./internal/scenario -update
var update = flag.Bool("update", false, "rewrite the trace golden files with the current output")

// TestTraceGolden pins the trace bytes of the faulted traceScenario, which
// has every event kind, in both formats against
// testdata/trace.{jsonl,chrome}.golden.
func TestTraceGolden(t *testing.T) {
	for _, format := range []string{traceJSONL, traceChrome} {
		t.Run(format, func(t *testing.T) {
			got, _ := renderTrace(t, traceScenario(false), format)
			path := filepath.Join("testdata", "trace."+format+".golden")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with: go test ./internal/scenario -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s trace drifted from %s (%d vs %d bytes)", format, path, len(got), len(want))
			}
		})
	}
}

// TestTraceByteIdenticalAcrossReplayModes pins the determinism contract
// of the trace pipeline: a seeded grid scenario renders byte-identical
// traces whether the shards replay concurrently or sequentially, in both
// output formats.
func TestTraceByteIdenticalAcrossReplayModes(t *testing.T) {
	for _, format := range []string{traceChrome, traceJSONL} {
		t.Run(format, func(t *testing.T) {
			concurrent, _ := renderTrace(t, traceScenario(false), format)
			sequential, _ := renderTrace(t, traceScenario(true), format)
			if !bytes.Equal(concurrent, sequential) {
				t.Fatalf("concurrent and sequential replays rendered different %s traces (%d vs %d bytes)",
					format, len(concurrent), len(sequential))
			}
			rerun, _ := renderTrace(t, traceScenario(false), format)
			if !bytes.Equal(concurrent, rerun) {
				t.Fatalf("two concurrent replays rendered different %s traces", format)
			}
		})
	}
}

// TestTraceEventsReconcileWithReport checks that the trace's event
// counts agree with the final report: every committed batch, routing
// decision and kill of the report appears exactly once in the trace.
func TestTraceEventsReconcileWithReport(t *testing.T) {
	r, err := Compile(traceScenario(false))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	counts := map[traceKind]int{}
	for _, ev := range traceEvents(rep) {
		counts[ev.Kind]++
	}

	batches := 0
	for _, crep := range rep.Grid.Clusters {
		batches += len(crep.Batches)
	}
	if counts[kindBatch] != batches {
		t.Errorf("trace has %d batch events, report has %d batches", counts[kindBatch], batches)
	}
	migrations := 0
	for _, d := range rep.Grid.Decisions {
		if d.Migrated {
			migrations++
		}
	}
	if got := counts[kindDecision] + counts[kindMigration]; got != len(rep.Grid.Decisions) {
		t.Errorf("trace has %d decision+migration events, report has %d decisions", got, len(rep.Grid.Decisions))
	}
	if counts[kindMigration] != migrations {
		t.Errorf("trace has %d migration events, report has %d migrated decisions", counts[kindMigration], migrations)
	}
	kills := 0
	for _, crep := range rep.Grid.Clusters {
		kills += crep.Metrics.Killed
	}
	if counts[kindKill] != kills {
		t.Errorf("trace has %d kill events, report has %d kills", counts[kindKill], kills)
	}
	if counts[kindKill] == 0 {
		t.Error("fault scenario produced no kill events; the trace path is untested")
	}
	if counts[kindMigration] == 0 {
		t.Error("shard-fault scenario produced no migration events; the trace path is untested")
	}
	if counts[kindDrain] != 1 {
		t.Errorf("trace has %d drain events, want 1", counts[kindDrain])
	}
}

// referenceTraceSink is a test-only copy of the streaming trace path the
// report renderer replaced: an observer records every batch, kill,
// decision and migration into a mutex-guarded sink while the run streams
// them, and the drain event closes the trace after the run.
type referenceTraceSink struct {
	mu     sync.Mutex
	events []traceEvent
}

func (s *referenceTraceSink) record(ev traceEvent) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

func (s *referenceTraceSink) observer() Observer {
	return Observer{
		Batch: func(c int, br cluster.BatchReport) {
			s.record(traceEvent{
				Kind: kindBatch, Cluster: c, Batch: br.Index, Job: -1, Name: br.Winner,
				Start: br.FireTime, End: br.FireTime + br.RealizedMakespan, Tasks: len(br.Jobs),
			})
			for _, k := range br.KillEvents {
				s.record(traceEvent{Kind: kindKill, Cluster: c, Batch: k.Batch, Job: k.TaskID, Start: k.Start, End: k.Time})
			}
		},
		Decision: func(d grid.Decision) {
			kind := kindDecision
			if d.Migrated {
				kind = kindMigration
			}
			s.record(traceEvent{
				Kind: kind, Cluster: d.Cluster, Batch: -1, Job: d.JobID,
				Start: d.Release, End: d.Release, Backlog: d.Backlog,
			})
		},
	}
}

func (s *referenceTraceSink) recordDrain(rep *Report) {
	s.record(traceEvent{Kind: kindDrain, Cluster: -1, Batch: -1, Job: -1, Start: 0, End: rep.Makespan(), Tasks: rep.Jobs})
}

// TestTraceMatchesReference holds the report-based trace renderer to the
// streaming observer-plus-sink path it replaced, byte for byte in both
// formats, on a faulted grid, the 8-shard racing stress grid and a
// faulted single cluster, each replayed concurrently.
func TestTraceMatchesReference(t *testing.T) {
	for _, tc := range referenceScenarios() {
		t.Run(tc.name, func(t *testing.T) {
			r, err := Compile(tc.s)
			if err != nil {
				t.Fatal(err)
			}
			ref := &referenceTraceSink{}
			r.Observe(ref.observer())
			rep, err := r.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			ref.recordDrain(rep)
			kills := 0
			for _, ev := range ref.events {
				if ev.Kind == kindKill {
					kills++
				}
			}
			if kills == 0 {
				t.Fatal("the scenario killed no job; the kill path is untested")
			}
			for _, format := range []string{traceJSONL, traceChrome} {
				var got, want bytes.Buffer
				if err := WriteTrace(&got, format, rep); err != nil {
					t.Fatal(err)
				}
				if err := writeTrace(&want, format, append([]traceEvent(nil), ref.events...)); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("%s trace differs from the streaming reference:\n--- report ---\n%s\n--- reference ---\n%s",
						format, got.String(), want.String())
				}
			}
		})
	}
}

// traceFixture returns a small event set resembling a two-cluster replay.
func traceFixture() []traceEvent {
	return []traceEvent{
		{Kind: kindDecision, Cluster: 0, Batch: -1, Job: 3, Start: 0, End: 0, Backlog: 0.5},
		{Kind: kindDecision, Cluster: 1, Batch: -1, Job: 4, Start: 0, End: 0, Backlog: 0.25},
		{Kind: kindBatch, Cluster: 0, Batch: 0, Job: -1, Name: "demt", Start: 0, End: 12.5, Tasks: 3},
		{Kind: kindBatch, Cluster: 1, Batch: 0, Job: -1, Name: "list-saf", Start: 0, End: 9, Tasks: 2},
		{Kind: kindKill, Cluster: 1, Batch: 0, Job: 4, Start: 2, End: 5.5},
		{Kind: kindMigration, Cluster: 0, Batch: -1, Job: 4, Start: 5.5, End: 5.5, Backlog: 1.5},
		{Kind: kindBatch, Cluster: 0, Batch: 1, Job: -1, Name: "gang", Start: 12.5, End: 20, Tasks: 1},
		{Kind: kindDrain, Cluster: -1, Batch: -1, Job: -1, Start: 0, End: 20, Tasks: 5},
	}
}

func render(t *testing.T, events []traceEvent, format string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := writeTrace(&buf, format, events); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestTraceOrderIndependent(t *testing.T) {
	for _, format := range []string{traceJSONL, traceChrome} {
		want := render(t, traceFixture(), format)
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 10; trial++ {
			shuffled := traceFixture()
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			if got := render(t, shuffled, format); got != want {
				t.Fatalf("%s output depends on insertion order (trial %d):\n--- want ---\n%s--- got ---\n%s",
					format, trial, want, got)
			}
		}
	}
}

func TestTraceTotalOrder(t *testing.T) {
	events := traceFixture()
	render(t, events, traceJSONL) // sorts events in place
	drains := 0
	for i, ev := range events {
		if i > 0 && ev.less(events[i-1]) {
			t.Fatalf("events[%d] sorts before events[%d]: %+v < %+v", i, i-1, ev, events[i-1])
		}
		if ev.Kind == kindDrain {
			drains++
		}
	}
	if drains != 1 {
		t.Fatalf("drain events = %d, want 1", drains)
	}
}

func TestChromeTraceShape(t *testing.T) {
	out := render(t, traceFixture(), traceChrome)
	var trace struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &trace); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", trace.DisplayTimeUnit)
	}
	var meta, spans, instants int
	pids := map[int]bool{}
	for _, ev := range trace.TraceEvents {
		pids[ev.Pid] = true
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			spans++
			if ev.Dur < 0 {
				t.Fatalf("span %q has negative duration %g", ev.Name, ev.Dur)
			}
		case "i":
			instants++
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	// Tracks: grid (pid 0) + clusters 0 and 1 (pids 1 and 2).
	for _, p := range []int{0, 1, 2} {
		if !pids[p] {
			t.Fatalf("missing track pid %d (have %v)", p, pids)
		}
	}
	if meta != 3 {
		t.Fatalf("process_name metadata events = %d, want 3", meta)
	}
	if spans != 4 { // 3 batches + 1 drain
		t.Fatalf("complete spans = %d, want 4", spans)
	}
	if instants != 4 { // 2 decisions + 1 kill + 1 migration
		t.Fatalf("instants = %d, want 4", instants)
	}
}

func TestJSONLShape(t *testing.T) {
	out := render(t, traceFixture(), traceJSONL)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != len(traceFixture()) {
		t.Fatalf("lines = %d, want %d", len(lines), len(traceFixture()))
	}
	kinds := map[traceKind]int{}
	for _, line := range lines {
		var ev traceEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %q is not valid JSON: %v", line, err)
		}
		kinds[ev.Kind]++
	}
	want := map[traceKind]int{kindBatch: 3, kindDecision: 2, kindKill: 1, kindMigration: 1, kindDrain: 1}
	for k, n := range want {
		if kinds[k] != n {
			t.Fatalf("kind %q count = %d, want %d", k, kinds[k], n)
		}
	}
}

// TestMigrationDrainRenderingPinned pins the byte-exact rendering of the
// migration and drain events in both formats. These bytes are compared
// across replays (the determinism guarantee) and consumed by external
// viewers, so any drift here is a compatibility decision.
func TestMigrationDrainRenderingPinned(t *testing.T) {
	jsonl := render(t, traceFixture(), traceJSONL)
	lines := strings.Split(strings.TrimRight(jsonl, "\n"), "\n")
	wantLines := map[string]string{
		"migration": `{"kind":"migration","cluster":0,"batch":-1,"job":4,"start":5.5,"end":5.5,"backlog":1.5}`,
		"drain":     `{"kind":"drain","cluster":-1,"batch":-1,"job":-1,"start":0,"end":20,"tasks":5}`,
	}
	for kind, want := range wantLines {
		found := false
		for _, line := range lines {
			if line == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("JSONL %s line drifted from pinned bytes:\nwant %s\nhave:\n%s", kind, want, jsonl)
		}
	}

	chrome := render(t, traceFixture(), traceChrome)
	for kind, want := range map[string]string{
		"migration": `{"name":"migrate job 4","ph":"i","ts":5500,"pid":1,"tid":1,"s":"t","args":{"job":4,"backlog":1.5}}`,
		"drain":     `{"name":"drain","ph":"X","ts":0,"dur":20000,"pid":0,"tid":1,"args":{"tasks":5}}`,
	} {
		if !strings.Contains(chrome, want) {
			t.Errorf("chrome %s event drifted from pinned bytes:\nwant %s\nhave:\n%s", kind, want, chrome)
		}
	}
}

func TestWriteTraceUnknownFormat(t *testing.T) {
	if err := writeTrace(&bytes.Buffer{}, "xml", traceFixture()); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// TestRunnerMetricsPopulated checks the compiled runner's registry
// accumulates the timing histograms during a replay and renders as valid
// Prometheus text.
func TestRunnerMetricsPopulated(t *testing.T) {
	r, err := Compile(traceScenario(false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.(*runner).reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	families, err := obs.ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("runner registry rendered invalid Prometheus text: %v\n%s", err, buf.String())
	}
	names := map[string]bool{}
	for _, f := range families {
		names[f.Name] = true
	}
	for _, want := range []string{
		"bicrit_portfolio_algorithm_seconds",
		"bicrit_batch_schedule_seconds",
		"bicrit_grid_route_stream_seconds",
		"bicrit_demt_phase_seconds",
	} {
		if !names[want] {
			t.Errorf("registry is missing family %s after a replay; have %s",
				want, strings.Join(sortedNames(names), ", "))
		}
	}
}

func sortedNames(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	// Order does not matter for the error message; keep it simple.
	return out
}

// TestMergeObservers checks both chained observers see every event.
func TestMergeObservers(t *testing.T) {
	var a, b int
	count := func(n *int) Observer {
		return Observer{
			Batch: func(int, cluster.BatchReport) { *n++ },
		}
	}
	merged := MergeObservers(count(&a), count(&b))
	merged.Batch(0, cluster.BatchReport{})
	merged.Batch(1, cluster.BatchReport{})
	if a != 2 || b != 2 {
		t.Fatalf("merged observer dispatched a=%d b=%d, want 2 and 2", a, b)
	}
}
