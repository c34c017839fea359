package flight

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"bicriteria/internal/cluster"
	"bicriteria/internal/grid"
)

// fixture returns a small event set resembling a two-cluster replay with
// one outage: job 4 is killed mid-batch and rebatched, job 7 is killed
// and never returns.
func fixture() []Event {
	return []Event{
		{Kind: KindSubmitted, Job: 3, Time: 0, Cluster: -1, Batch: -1},
		{Kind: KindSubmitted, Job: 4, Time: 0, Cluster: -1, Batch: -1},
		{Kind: KindSubmitted, Job: 7, Time: 0, Cluster: -1, Batch: -1},
		{Kind: KindRouted, Job: 3, Time: 0, Cluster: 0, Batch: -1, Backlog: 0.5,
			Verdicts: []Verdict{{Cluster: 0, Backlog: 0.5, State: "chosen"}, {Cluster: 1, Backlog: 0.75, State: "open"}}},
		{Kind: KindRouted, Job: 4, Time: 0, Cluster: 1, Batch: -1, Backlog: 0.25},
		{Kind: KindRouted, Job: 7, Time: 0, Cluster: 1, Batch: -1, Backlog: 0.5},
		{Kind: KindBatched, Job: 3, Time: 0, Cluster: 0, Batch: 0, Winner: "demt", LowerBound: 10},
		{Kind: KindPlanned, Job: 3, Time: 0, Cluster: 0, Batch: 0, Allotment: 4},
		{Kind: KindStarted, Job: 3, Time: 0, Cluster: 0, Batch: 0, Allotment: 4, End: 12},
		{Kind: KindDone, Job: 3, Time: 12, Cluster: 0, Batch: 0},
		{Kind: KindBatched, Job: 4, Time: 0, Cluster: 1, Batch: 0, Winner: "list-saf", LowerBound: 8},
		{Kind: KindBatched, Job: 7, Time: 0, Cluster: 1, Batch: 0, Winner: "list-saf", LowerBound: 8},
		{Kind: KindKilled, Job: 4, Time: 5, Cluster: 1, Batch: 0},
		{Kind: KindKilled, Job: 7, Time: 5, Cluster: 1, Batch: 0},
		{Kind: KindMigrated, Job: 4, Time: 5, Cluster: 0, Batch: -1, Backlog: 1.5},
		{Kind: KindBatched, Job: 4, Time: 12, Cluster: 0, Batch: 1, Winner: "gang", LowerBound: 6},
		{Kind: KindStarted, Job: 4, Time: 12, Cluster: 0, Batch: 1, Allotment: 2, End: 20},
		{Kind: KindDone, Job: 4, Time: 20, Cluster: 0, Batch: 1},
	}
}

func record(events []Event) *Recorder {
	r := NewRecorder()
	for _, ev := range events {
		r.record(ev)
	}
	return r
}

// TestEventsOrderIndependent is the crown-jewel property at the recorder
// level: whatever order events arrive in (a concurrent replay delivers
// them nondeterministically), Events and every rendered timeline are
// byte-identical.
func TestEventsOrderIndependent(t *testing.T) {
	base := fixture()
	want := record(base).Events()
	var wantText bytes.Buffer
	if err := FormatTimeline(&wantText, 4, record(base).Timeline(4)); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		shuffled := append([]Event(nil), base...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		r := record(shuffled)
		if got := r.Events(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Events depends on insertion order (trial %d)", trial)
		}
		var got bytes.Buffer
		if err := FormatTimeline(&got, 4, r.Timeline(4)); err != nil {
			t.Fatal(err)
		}
		if got.String() != wantText.String() {
			t.Fatalf("timeline depends on insertion order (trial %d):\n--- want ---\n%s--- got ---\n%s",
				trial, wantText.String(), got.String())
		}
	}
}

// TestTimelineSynthesis pins the resubmitted/lost synthesis: a kill
// followed by a later batched event becomes a resubmission at the kill
// instant, a kill never followed by one becomes the job's loss.
func TestTimelineSynthesis(t *testing.T) {
	r := record(fixture())

	kinds := func(job int) []Kind {
		var out []Kind
		for _, ev := range r.Timeline(job) {
			out = append(out, ev.Kind)
		}
		return out
	}

	// At the shared outage instant t=5 the kind rank breaks the tie:
	// migrated (rank 2) renders before killed (rank 6). The ranks are
	// frozen — this order is part of the byte-identical guarantee.
	wantRebatched := []Kind{KindSubmitted, KindRouted, KindBatched, KindMigrated, KindKilled,
		KindResubmitted, KindBatched, KindStarted, KindDone}
	if got := kinds(4); !reflect.DeepEqual(got, wantRebatched) {
		t.Fatalf("rebatched job 4 stages = %v, want %v", got, wantRebatched)
	}
	wantLost := []Kind{KindSubmitted, KindRouted, KindBatched, KindKilled, KindLost}
	if got := kinds(7); !reflect.DeepEqual(got, wantLost) {
		t.Fatalf("lost job 7 stages = %v, want %v", got, wantLost)
	}
	if got := r.Timeline(99); got != nil {
		t.Fatalf("Timeline(99) = %v, want nil for an unseen job", got)
	}
	if got := r.Jobs(); !reflect.DeepEqual(got, []int{3, 4, 7}) {
		t.Fatalf("Jobs = %v, want [3 4 7]", got)
	}
}

// TestJSONLRoundTrip writes a trace, sniffs it, reads it back and
// re-renders it: the round-tripped recorder must be byte-identical.
func TestJSONLRoundTrip(t *testing.T) {
	r := record(fixture())
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if !IsTrace(buf.Bytes()) {
		t.Fatal("IsTrace rejected a written trace")
	}
	if !strings.HasPrefix(buf.String(), `{"flight_format":1}`+"\n") {
		t.Fatalf("trace header drifted: %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}

	back, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Events(), r.Events()) {
		t.Fatal("round-tripped events differ")
	}
	var again bytes.Buffer
	if err := back.WriteJSONL(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != buf.String() {
		t.Fatal("round-tripped trace is not byte-identical")
	}
}

func TestIsTraceRejectsOtherJSON(t *testing.T) {
	for _, data := range []string{
		"",
		"not json at all",
		`{"version": 1, "name": "scenario"}`,
		`{"flight_format": 0}`,
	} {
		if IsTrace([]byte(data)) {
			t.Errorf("IsTrace(%q) = true, want false", data)
		}
	}
}

func TestReadJSONLErrors(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("")); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"version": 1}` + "\n")); err == nil {
		t.Error("missing header accepted")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"flight_format": 99}` + "\n")); err == nil {
		t.Error("newer format version accepted")
	}
	if _, err := ReadJSONL(strings.NewReader(`{"flight_format": 1}` + "\nnot json\n")); err == nil {
		t.Error("malformed event line accepted")
	}
}

// TestFromGridReport pins the rebuild from a finished report: submissions come
// from non-migrated decisions, batches (with winner, lower bound and
// placements) from the per-shard reports.
func TestFromGridReport(t *testing.T) {
	rep := &grid.Report{
		Decisions: []grid.Decision{
			{JobID: 1, Release: 0, Cluster: 0, Backlog: 0.5,
				Verdicts: []grid.ShardVerdict{{Cluster: 0, Backlog: 0.5, State: grid.VerdictChosen}}},
			{JobID: 1, Release: 4, Cluster: 1, Backlog: 0.25, Migrated: true},
		},
		Clusters: []*cluster.Report{
			nil,
			{Batches: []cluster.BatchReport{{
				Index: 0, FireTime: 4, Jobs: []int{1}, Winner: "demt", LowerBound: 3,
				Placements: []cluster.Placement{{TaskID: 1, Start: 4, End: 9, Procs: 2}},
			}}},
		},
	}
	r := FromGridReport(rep)
	want := []Kind{KindSubmitted, KindRouted, KindMigrated, KindBatched, KindPlanned, KindStarted, KindDone}
	var got []Kind
	for _, ev := range r.Timeline(1) {
		got = append(got, ev.Kind)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stages = %v, want %v", got, want)
	}
	events := r.Events()
	for _, ev := range events {
		if ev.Kind == KindBatched {
			if ev.Winner != "demt" || ev.LowerBound != 3 {
				t.Fatalf("batched event lost provenance: %+v", ev)
			}
		}
		if ev.Kind == KindMigrated && ev.Time != 4 {
			t.Fatalf("migrated event at t=%g, want 4", ev.Time)
		}
	}
	if n := len(FromGridReport(nil).Events()); n != 0 {
		t.Fatalf("nil report yielded %d events, want 0", n)
	}
}
