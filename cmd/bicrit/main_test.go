package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bicriteria"
)

// writeScenario saves a scenario into a temp file and returns the path.
func writeScenario(t *testing.T, s bicriteria.Scenario) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := bicriteria.SaveScenario(path, s); err != nil {
		t.Fatal(err)
	}
	return path
}

// update rewrites the golden files: go test ./cmd/bicrit -update
var update = flag.Bool("update", false, "rewrite the golden files with the current output")

// checkGolden compares got with testdata/<name>, or rewrites the golden
// under -update. The goldens pin the report, JSON and CSV bytes of a
// replay (every replay is deterministic), so drift in either the shape or
// the numbers is a test failure, not a silent change.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with: go test ./cmd/bicrit -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output drifted from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// checkGridGoldens replays a grid scenario with the JSON and CSV exports
// and checks all three artifacts against testdata/<prefix>{,.json,.csv}.golden.
func checkGridGoldens(t *testing.T, prefix string, s bicriteria.Scenario) {
	t.Helper()
	path := writeScenario(t, s)
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "report.json")
	csvPath := filepath.Join(dir, "clusters.csv")
	var buf bytes.Buffer
	if err := runCmd([]string{"-json", jsonPath, "-csv", csvPath, path}, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, prefix+".golden", buf.Bytes())
	for _, export := range []struct{ path, golden string }{
		{jsonPath, prefix + ".json.golden"},
		{csvPath, prefix + ".csv.golden"},
	} {
		got, err := os.ReadFile(export.path)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, export.golden, got)
	}
}

// TestRunMatchesClusterGolden pins a single-topology replay with a
// reservation, adaptive batching and the combined objective, verbose.
func TestRunMatchesClusterGolden(t *testing.T) {
	path := writeScenario(t, bicriteria.Scenario{
		Seed:     5,
		Topology: bicriteria.TopologySingle,
		Clusters: []bicriteria.ScenarioCluster{{
			Machines:     32,
			Reservations: []bicriteria.ScenarioReservation{{Procs: 8, Start: 10, End: 30}},
		}},
		Workload:  bicriteria.ScenarioWorkload{Kind: "mixed", Jobs: 60},
		Arrivals:  bicriteria.ScenarioArrivals{Rate: 3},
		Batch:     bicriteria.ScenarioBatch{Policy: "adaptive"},
		Objective: bicriteria.ScenarioObjective{Kind: "combined"},
		Noise:     0.2,
	})
	var buf bytes.Buffer
	if err := runCmd([]string{"-v", path}, &buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "cluster_report.golden", buf.Bytes())
}

// TestRunMatchesClusterFaultsGolden pins a faulted single-topology
// replay with checkpoint replans. The fault seed is the raw stream seed,
// set explicitly (a bare section would derive ScenarioFaultSeed(seed)).
func TestRunMatchesClusterFaultsGolden(t *testing.T) {
	path := writeScenario(t, bicriteria.Scenario{
		Seed:     3,
		Topology: bicriteria.TopologySingle,
		Clusters: []bicriteria.ScenarioCluster{{Machines: 16}},
		Workload: bicriteria.ScenarioWorkload{Kind: "mixed", Jobs: 80},
		Arrivals: bicriteria.ScenarioArrivals{Rate: 8},
		Faults: &bicriteria.ScenarioFaults{
			Seed:   3,
			MTBF:   10,
			Repair: 4,
			Replan: "checkpoint",
		},
	})
	var buf bytes.Buffer
	if err := runCmd([]string{"-v", path}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if !bytes.Contains(out, []byte("fault injection")) || !bytes.Contains(out, []byte("kills")) {
		t.Fatalf("faulted report lacks the fault metrics section:\n%s", out)
	}
	checkGolden(t, "cluster_report_faults.golden", out)
}

// TestRunMatchesGridGoldens pins a noisy grid replay under least-backlog
// routing with admission control: text report, JSON and CSV exports.
func TestRunMatchesGridGoldens(t *testing.T) {
	checkGridGoldens(t, "grid_report", bicriteria.Scenario{
		Seed:     2,
		Topology: bicriteria.TopologyGrid,
		Clusters: []bicriteria.ScenarioCluster{{Machines: 16}, {Machines: 8}, {Machines: 8}},
		Workload: bicriteria.ScenarioWorkload{Kind: "mixed", Jobs: 60},
		Arrivals: bicriteria.ScenarioArrivals{Rate: 5, Interarrival: "exponential"},
		Routing:  bicriteria.ScenarioRouting{Policy: "least-backlog", AdmitBacklog: 30},
		Noise:    0.2,
	})
}

// TestRunMatchesGridFaultsGoldens pins a grid losing nodes and whole
// shards: the fault columns of the report, JSON and CSV. The fault seed
// is the raw stream seed, set explicitly.
func TestRunMatchesGridFaultsGoldens(t *testing.T) {
	checkGridGoldens(t, "grid_report_faults", bicriteria.Scenario{
		Seed:     2,
		Topology: bicriteria.TopologyGrid,
		Clusters: []bicriteria.ScenarioCluster{{Machines: 16}, {Machines: 8}, {Machines: 8}},
		Workload: bicriteria.ScenarioWorkload{Kind: "mixed", Jobs: 100},
		Arrivals: bicriteria.ScenarioArrivals{Rate: 8, Interarrival: "exponential"},
		Faults: &bicriteria.ScenarioFaults{
			Seed:        2,
			MTBF:        15,
			Repair:      5,
			ShardMTBF:   60,
			ShardRepair: 15,
		},
	})
}

// TestGoldenCSVFaultColumns pins the column contract: fault metrics
// columns appear exactly when a fault plan is active.
func TestGoldenCSVFaultColumns(t *testing.T) {
	plain, err := os.ReadFile(filepath.Join("testdata", "grid_report.csv.golden"))
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := os.ReadFile(filepath.Join("testdata", "grid_report_faults.csv.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(plain, []byte("killed")) {
		t.Fatal("zero-fault CSV contains fault columns")
	}
	for _, col := range []string{"killed", "resubmitted", "migrated", "recovered", "lost"} {
		if !bytes.Contains(faulted, []byte(col)) {
			t.Fatalf("faulted CSV lacks the %s column", col)
		}
	}
}

// checkConcurrentMatchesSequential pins that the concurrent replay of s
// prints the same verbose report as the goroutine-free one (-sequential).
func checkConcurrentMatchesSequential(t *testing.T, s bicriteria.Scenario) {
	t.Helper()
	path := writeScenario(t, s)
	var concurrent, sequential bytes.Buffer
	if err := runCmd([]string{"-v", path}, &concurrent); err != nil {
		t.Fatal(err)
	}
	if err := runCmd([]string{"-v", "-sequential", path}, &sequential); err != nil {
		t.Fatal(err)
	}
	if concurrent.String() != sequential.String() {
		t.Fatalf("concurrent and sequential replays differ:\n--- concurrent ---\n%s--- sequential ---\n%s",
			concurrent.String(), sequential.String())
	}
}

// TestRunDeterministicAcrossModes replays a bursty single-topology stream
// with a reservation under the combined objective in both modes.
func TestRunDeterministicAcrossModes(t *testing.T) {
	checkConcurrentMatchesSequential(t, bicriteria.Scenario{
		Seed:     1,
		Topology: bicriteria.TopologySingle,
		Clusters: []bicriteria.ScenarioCluster{{
			Machines:     16,
			Reservations: []bicriteria.ScenarioReservation{{Procs: 4, Start: 5, End: 20}},
		}},
		Workload:  bicriteria.ScenarioWorkload{Jobs: 40},
		Arrivals:  bicriteria.ScenarioArrivals{Rate: 4, Burst: 5},
		Objective: bicriteria.ScenarioObjective{Kind: "combined", Alpha: 0.4},
		Noise:     0.25,
	})
}

// TestRunGridDeterministicAcrossModes replays a bursty grid stream under
// least-backlog routing with admission control in both modes.
func TestRunGridDeterministicAcrossModes(t *testing.T) {
	checkConcurrentMatchesSequential(t, bicriteria.Scenario{
		Seed:     1,
		Topology: bicriteria.TopologyGrid,
		Clusters: []bicriteria.ScenarioCluster{{Machines: 16}, {Machines: 8}, {Machines: 8}},
		Workload: bicriteria.ScenarioWorkload{Jobs: 40},
		Arrivals: bicriteria.ScenarioArrivals{Rate: 5, Burst: 4},
		Routing:  bicriteria.ScenarioRouting{Policy: "least-backlog", AdmitBacklog: 30},
		Noise:    0.2,
	})
}

// TestRunAllBatchPolicies replays a noisy single-topology stream under
// every batching policy and checks the report carries every metric line.
func TestRunAllBatchPolicies(t *testing.T) {
	for _, policy := range []string{"idle", "interval", "adaptive"} {
		path := writeScenario(t, bicriteria.Scenario{
			Topology: bicriteria.TopologySingle,
			Clusters: []bicriteria.ScenarioCluster{{Machines: 16}},
			Workload: bicriteria.ScenarioWorkload{Kind: "mixed", Jobs: 30},
			Arrivals: bicriteria.ScenarioArrivals{Rate: 3},
			Batch:    bicriteria.ScenarioBatch{Policy: policy},
			Noise:    0.2,
		})
		var buf bytes.Buffer
		if err := runCmd([]string{path}, &buf); err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		out := buf.String()
		for _, want := range []string{"realized makespan", "max flow", "mean stretch", "utilization", "portfolio wins:"} {
			if !strings.Contains(out, want) {
				t.Fatalf("%s: missing %q in output:\n%s", policy, want, out)
			}
		}
	}
}

// TestRunSWFTraceReplay replays an SWF trace named by arrivals.trace end
// to end.
func TestRunSWFTraceReplay(t *testing.T) {
	records := []bicriteria.TraceRecord{
		{JobID: 1, Submit: 0, Run: 10, Procs: 4, ReqProcs: 4, ReqTime: 12, Status: 1},
		{JobID: 2, Submit: 2, Run: 6, Procs: 2, ReqProcs: 2, ReqTime: 8, Status: 1},
		{JobID: 3, Submit: 15, Run: 4, Procs: 8, ReqProcs: 8, ReqTime: 5, Status: 1},
	}
	swf := filepath.Join(t.TempDir(), "jobs.swf")
	if err := writeFile(swf, func(w io.Writer) error { return bicriteria.WriteTrace(w, records) }); err != nil {
		t.Fatal(err)
	}
	path := writeScenario(t, bicriteria.Scenario{
		Topology: bicriteria.TopologySingle,
		Clusters: []bicriteria.ScenarioCluster{{Machines: 16}},
		Arrivals: bicriteria.ScenarioArrivals{Trace: swf},
	})
	var buf bytes.Buffer
	if err := runCmd([]string{path}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "replayed 3 jobs") {
		t.Fatalf("trace replay output missing job count:\n%s", buf.String())
	}
}

// TestParseSizes pins the one comma-list parser of gen's -clusters and
// exp's -tasks.
func TestParseSizes(t *testing.T) {
	sizes, err := parseSizes("clusters", "64, 32,16")
	if err != nil || fmt.Sprint(sizes) != "[64 32 16]" {
		t.Fatalf("parseSizes = %v, %v", sizes, err)
	}
	for _, bad := range []string{",", "", "16,zero", "-4", "0"} {
		if _, err := parseSizes("clusters", bad); err == nil {
			t.Fatalf("size list %q accepted", bad)
		} else if !strings.HasPrefix(err.Error(), "-clusters") {
			t.Fatalf("error %q does not name the flag", err)
		}
	}
}

// TestExpParseTasks pins exp's -tasks list: blanks around entries are
// trimmed, and a list of only separators is rejected naming the flag.
func TestExpParseTasks(t *testing.T) {
	counts, err := parseSizes("tasks", " 25, 50 ,100 ")
	if err != nil || fmt.Sprint(counts) != "[25 50 100]" {
		t.Fatalf("parseSizes = %v, %v", counts, err)
	}
	if _, err := parseSizes("tasks", " , "); err == nil {
		t.Fatalf("empty -tasks list accepted")
	} else if !strings.HasPrefix(err.Error(), "-tasks") {
		t.Fatalf("error %q does not name the flag", err)
	}
}

// TestGenInstanceWritesWorkloadFile pins gen -instance: the file holds
// exactly the bytes WriteInstance writes for the generated instance, and
// the same flags without -o print those bytes.
func TestGenInstanceWritesWorkloadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.json")
	flags := []string{"-instance", "-kind", "mixed", "-clusters", "16", "-n", "12", "-seed", "3"}
	var buf bytes.Buffer
	if err := genCmd(append(flags, "-o", path), &buf); err != nil {
		t.Fatal(err)
	}
	if want := "wrote 12 tasks on 16 processors (mixed workload) to " + path + "\n"; buf.String() != want {
		t.Fatalf("gen -instance printed %q, want %q", buf.String(), want)
	}
	inst, err := bicriteria.GenerateWorkload(bicriteria.WorkloadConfig{
		Kind: bicriteria.WorkloadMixed, M: 16, N: 12, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := bicriteria.WriteInstance(&want, inst); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("gen -instance file differs from WriteInstance:\n%s\nvs\n%s", got, want.Bytes())
	}
	var stdout bytes.Buffer
	if err := genCmd(flags, &stdout); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
		t.Fatal("gen -instance without -o printed other bytes than the file")
	}
}

// TestGenInstanceRejectsBadFlags pins gen -instance's flag errors.
func TestGenInstanceRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-instance", "-kind", "nonsense"},
		{"-instance", "-kind", "cirne", "-n", "0"},
		{"-instance", "-clusters", "16,8"},
		{"-instance", "-bogus"},
	} {
		if err := genCmd(args, &bytes.Buffer{}); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestSubcommandTable pins that every entry of the subcommand table
// dispatches to its own flag set and is listed by help, and that the
// usage and unknown-subcommand errors name every entry.
func TestSubcommandTable(t *testing.T) {
	var help bytes.Buffer
	if err := dispatch([]string{"help"}, &help); err != nil {
		t.Fatal(err)
	}
	usage := dispatch(nil, io.Discard)
	unknown := dispatch([]string{"bogus"}, io.Discard)
	if usage == nil || unknown == nil {
		t.Fatal("no subcommand or an unknown one accepted")
	}
	for _, c := range subcommands {
		// An undefined flag fails inside the subcommand's own flag set,
		// which names the subcommand in its usage line.
		err := dispatch([]string{c.name, "-no-such-flag"}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "no-such-flag") {
			t.Errorf("%s: undefined flag gave %v", c.name, err)
		}
		if !strings.Contains(help.String(), "\n  "+c.name+" ") {
			t.Errorf("help does not list %s:\n%s", c.name, help.String())
		}
		for _, err := range []error{usage, unknown} {
			if !strings.Contains(err.Error(), c.name) {
				t.Errorf("error %q does not name %s", err, c.name)
			}
		}
	}
}

// TestGenRunPipeline generates a scenario file with `bicrit gen` and
// replays it with `bicrit run`.
func TestGenRunPipeline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scn.json")
	var genOut bytes.Buffer
	if err := genCmd([]string{"-topology", "grid", "-clusters", "16,8", "-n", "25",
		"-rate", "5", "-seed", "4", "-noise", "0.1", "-o", path}, &genOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(genOut.String(), "wrote grid scenario") {
		t.Fatalf("unexpected gen output: %s", genOut.String())
	}
	var runOut bytes.Buffer
	if err := runCmd([]string{path}, &runOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"routed 25 jobs", "grid makespan", "per-cluster:"} {
		if !strings.Contains(runOut.String(), want) {
			t.Fatalf("missing %q in run output:\n%s", want, runOut.String())
		}
	}
	// Determinism: the same scenario file replays identically.
	var again bytes.Buffer
	if err := runCmd([]string{path}, &again); err != nil {
		t.Fatal(err)
	}
	if runOut.String() != again.String() {
		t.Fatal("two runs of one scenario file differ")
	}
}

// TestGenRejectsBadFlags pins the eager validation of generated files.
func TestGenRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-clusters", ""},
		{"-clusters", "16,zero"},
		{"-kind", "nonsense"},
		{"-rate", "0"},
		{"-batch", "cron"},
		{"-objective", "latency"},
		{"-routing", "dice", "-clusters", "16,8"},
		{"-noise", "1.5"},
	} {
		if err := genCmd(args, &bytes.Buffer{}); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestRunRejectsBadInput pins run's file handling.
func TestRunRejectsBadInput(t *testing.T) {
	if err := runCmd([]string{}, &bytes.Buffer{}); err == nil {
		t.Fatal("missing scenario argument accepted")
	}
	if err := runCmd([]string{filepath.Join(t.TempDir(), "absent.json")}, &bytes.Buffer{}); err == nil {
		t.Fatal("absent scenario file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version": 1, "bogus": true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runCmd([]string{bad}, &bytes.Buffer{}); err == nil {
		t.Fatal("scenario with unknown fields accepted")
	}
}

// TestServeCmdSmokes boots `bicrit serve` on an ephemeral port from a
// scenario file with a service section, submits a job over HTTP and
// drains. The drain writes a final snapshot, so a second boot of the same
// file restores the job, says so, and drains it again.
func TestServeCmdSmokes(t *testing.T) {
	snapshot := filepath.Join(t.TempDir(), "snapshot.json")
	path := writeScenario(t, bicriteria.Scenario{
		Name:     "serve-smoke",
		Seed:     1,
		Topology: bicriteria.TopologyGrid,
		Clusters: []bicriteria.ScenarioCluster{{Machines: 8}, {Machines: 4}},
		Workload: bicriteria.ScenarioWorkload{Jobs: 1},
		Arrivals: bicriteria.ScenarioArrivals{Rate: 1},
		Service:  &bicriteria.ScenarioService{Speedup: 1000, SnapshotPath: snapshot},
	})
	for _, boot := range []struct {
		name   string
		submit bool
		want   []string
	}{
		{"fresh", true, []string{`scenario "serve-smoke"`, "draining...", "final report: 1 jobs", "grid makespan", "cluster 1"}},
		{"restart", false, []string{"restored 1 jobs from snapshot " + snapshot, "draining...", "final report: 1 jobs"}},
	} {
		t.Run(boot.name, func(t *testing.T) {
			bound := make(chan string, 1)
			stop := make(chan struct{})
			done := make(chan error, 1)
			var buf safeBuffer
			go func() {
				done <- serveCmd([]string{"-addr", "127.0.0.1:0", path}, &buf, bound, stop)
			}()
			var addr string
			select {
			case addr = <-bound:
			case err := <-done:
				t.Fatalf("server exited early: %v", err)
			case <-time.After(10 * time.Second):
				t.Fatal("server never bound")
			}
			if boot.submit {
				resp, err := http.Post("http://"+addr+"/jobs", "application/json",
					strings.NewReader(`{"id": 1, "weight": 2, "times": [30, 18]}`))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("submit returned %d", resp.StatusCode)
				}
			}
			close(stop)
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("drain never finished")
			}
			got := buf.String()
			for _, want := range boot.want {
				if !strings.Contains(got, want) {
					t.Fatalf("missing %q in output:\n%s", want, got)
				}
			}
			if boot.submit && strings.Contains(got, "restored") {
				t.Fatalf("fresh boot claims a restore:\n%s", got)
			}
		})
	}
}

// safeBuffer synchronizes writes from the serve goroutine with the
// test's final read.
type safeBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *safeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *safeBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestGenFaultedServiceNeedsHorizon pins the review fix: a scenario with
// both fault and service sections is only written when it can actually
// be served, which needs an explicit fault horizon, and the served
// configuration carries the generated cluster sizes and router admission.
func TestGenFaultedServiceNeedsHorizon(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scn.json")
	base := []string{"-clusters", "16,8", "-n", "40", "-rate", "5", "-admit", "30",
		"-fault-mtbf", "20", "-speedup", "60", "-o", path}
	if err := genCmd(base, &bytes.Buffer{}); err == nil {
		t.Fatal("faulted service scenario without a horizon accepted")
	}
	withHorizon := append(append([]string(nil), base...), "-fault-horizon", "500")
	if err := genCmd(withHorizon, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	scn, err := bicriteria.LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := bicriteria.ScenarioServeConfig(scn)
	if err != nil {
		t.Fatalf("generated scenario is not servable: %v", err)
	}
	if len(cfg.Grid.Clusters) != 2 || cfg.Grid.Clusters[0].M != 16 || cfg.Grid.Clusters[1].M != 8 {
		t.Fatalf("bad cluster specs: %+v", cfg.Grid.Clusters)
	}
	if cfg.Grid.AdmitBacklog != 30 {
		t.Fatalf("router admit backlog %g, want 30", cfg.Grid.AdmitBacklog)
	}
}
