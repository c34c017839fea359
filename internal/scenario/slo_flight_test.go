package scenario

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"bicriteria/internal/cluster"
	"bicriteria/internal/flight"
)

// runWithFlight compiles and runs a scenario with a flight recorder
// attached, returning the report and the recorder.
func runWithFlight(t *testing.T, s Scenario) (*Report, *flight.Recorder) {
	t.Helper()
	r, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	rec := flight.NewRecorder()
	r.Flight(rec)
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep, rec
}

// renderFlights renders every recorded job timeline into one byte
// stream — the widest byte-identity surface of the recorder.
func renderFlights(t *testing.T, rec *flight.Recorder) string {
	t.Helper()
	var buf bytes.Buffer
	for _, id := range rec.Jobs() {
		if err := flight.FormatTimeline(&buf, id, rec.Timeline(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestFlightConcurrentMatchesSequential is the acceptance pin of the
// flight recorder: a concurrent replay and a sequential replay of one
// faulted grid scenario render byte-identical timelines and traces for
// every job.
func TestFlightConcurrentMatchesSequential(t *testing.T) {
	s := base()
	s.Noise = 0.2
	s.Faults = &Faults{MTBF: 20, Repair: 5}

	_, concurrent := runWithFlight(t, s)
	s.Sequential = true
	_, sequential := runWithFlight(t, s)

	conc, seq := renderFlights(t, concurrent), renderFlights(t, sequential)
	if conc != seq {
		t.Fatalf("concurrent and sequential flight renderings differ:\n--- concurrent ---\n%s--- sequential ---\n%s", conc, seq)
	}
	if len(concurrent.Jobs()) != s.Workload.Jobs {
		t.Fatalf("recorded %d jobs, scenario has %d", len(concurrent.Jobs()), s.Workload.Jobs)
	}
	// The recorder must have captured provenance, not just lifecycle: at
	// least one batched event with a winner and a positive lower bound,
	// and at least one routed event carrying per-shard verdicts.
	var winners, verdicts int
	for _, ev := range concurrent.Events() {
		if ev.Kind == flight.KindBatched && ev.Winner != "" && ev.LowerBound > 0 {
			winners++
		}
		if ev.Kind == flight.KindRouted && len(ev.Verdicts) == len(s.Clusters) {
			verdicts++
		}
	}
	if winners == 0 {
		t.Error("no batched event carries winner + lower bound provenance")
	}
	if verdicts == 0 {
		t.Error("no routed event carries per-shard verdicts")
	}
}

// referenceFlight is a test-only copy of the streaming flight path the
// report-based fill replaced: the recorder is seeded with the stream's
// submissions before the run, then consumes every decision and batch as
// the runner streams them.
func referenceFlight(rec *flight.Recorder, jobs []cluster.Job) Observer {
	rec.Reset()
	for i := range jobs {
		rec.Submitted(jobs[i].Task.ID, jobs[i].Release)
	}
	return Observer{Batch: rec.OnBatch, Decision: rec.OnDecision}
}

// TestFlightMatchesReference holds the recorder a Runner fills from the
// finished report to the streaming reference it replaced: every job's
// timeline and the JSONL trace render to the same bytes, on a faulted
// grid, the 8-shard racing stress grid and a faulted single cluster, each
// replayed concurrently.
func TestFlightMatchesReference(t *testing.T) {
	for _, tc := range referenceScenarios() {
		t.Run(tc.name, func(t *testing.T) {
			jobs, err := buildJobs(tc.s.Normalized())
			if err != nil {
				t.Fatal(err)
			}
			r, err := Compile(tc.s)
			if err != nil {
				t.Fatal(err)
			}
			rec, ref := flight.NewRecorder(), flight.NewRecorder()
			r.Flight(rec)
			r.Observe(referenceFlight(ref, jobs))
			if _, err := r.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			killed := 0
			for _, ev := range ref.Events() {
				if ev.Kind == flight.KindKilled {
					killed++
				}
			}
			if killed == 0 {
				t.Fatal("the scenario killed no job; the kill path is untested")
			}
			if got, want := renderFlights(t, rec), renderFlights(t, ref); got != want {
				t.Fatalf("flight rendering differs from the streaming reference:\n--- report ---\n%s--- reference ---\n%s", got, want)
			}
		})
	}
}

// TestScenarioSLOReport pins the SLO axis of the scenario report: a tight
// deadline factor yields a deterministic nonzero miss count, identical
// between concurrent and sequential replays, rendered in both report
// formats, and absent without an SLO block.
func TestScenarioSLOReport(t *testing.T) {
	s := base()
	s.SLO = &SLOSpec{DeadlineFactor: 1, MissBudget: 0.1, BurnWindow: 50, StretchTarget: 2, WaitTarget: 1}

	r1, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r1.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.SLO == nil {
		t.Fatal("report lacks the SLO summary")
	}
	if rep.SLO.Jobs != s.Workload.Jobs {
		t.Fatalf("SLO evaluated %d jobs, want %d", rep.SLO.Jobs, s.Workload.Jobs)
	}
	if rep.SLO.Misses == 0 {
		t.Fatal("deadline factor 1 produced zero misses; the acceptance scenario needs a nonzero deterministic count")
	}
	if len(rep.SLO.PerCluster) == 0 {
		t.Fatal("SLO summary lacks the per-cluster axis")
	}
	if len(rep.SLO.Alerts) != 4 {
		t.Fatalf("alerts = %d, want 4 (deadline, burn, stretch, wait)", len(rep.SLO.Alerts))
	}
	var deadline *int
	for i, a := range rep.SLO.Alerts {
		if a.Name == "deadline-miss-budget" {
			deadline = &i
			if !a.Firing() {
				t.Errorf("deadline-miss-budget resolved despite miss rate %g > budget 0.1", rep.SLO.MissRate)
			}
		}
	}
	if deadline == nil {
		t.Fatal("no deadline-miss-budget alert")
	}

	s.Sequential = true
	r2, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	seqRep, err := r2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.SLO, seqRep.SLO) {
		t.Fatalf("concurrent and sequential SLO summaries differ:\n%+v\n%+v", rep.SLO, seqRep.SLO)
	}

	var text bytes.Buffer
	if err := WriteReport(&text, r1.Info(), rep); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"slo:", "deadline misses", "alert deadline-miss-budget"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text report lacks %q:\n%s", want, text.String())
		}
	}
	var js bytes.Buffer
	if err := WriteReportJSON(&js, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"slo"`) {
		t.Error("JSON report lacks the slo block")
	}

	// Golden safety: without an SLO block neither format mentions SLO.
	plain := base()
	pr, err := Compile(plain)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := pr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if prep.SLO != nil {
		t.Fatal("SLO summary present without an SLO block")
	}
	var ptext, pjs bytes.Buffer
	if err := WriteReport(&ptext, pr.Info(), prep); err != nil {
		t.Fatal(err)
	}
	if err := WriteReportJSON(&pjs, prep); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(ptext.String(), "slo:") || strings.Contains(pjs.String(), `"slo"`) {
		t.Error("SLO leaked into the report of a scenario without an SLO block")
	}
}
