// Package flight is the per-job flight recorder: it consumes the event
// stream of a scenario replay (routing decisions with per-shard verdicts,
// committed batches with their provenance, kills and migrations) and
// materializes one timeline per job — submitted → routed → batched →
// planned → started → killed/resubmitted → done — answering *why* every
// scheduling decision fell the way it did.
//
// A recorder is filled from a finished report, never from a replay in
// progress: by the scenario runner after its run, and by the serve layer
// from its trusted session's committed report. Events are kept under a
// total order (time, then job, then a fixed kind rank, then the remaining
// fields), so a rendered timeline does not depend on the order they were
// recorded in, and a concurrent replay renders byte-identically to a
// sequential one. Timelines synthesize the resubmitted/lost stage
// deterministically: a kill followed by a later batch containing the job
// is a resubmission, a kill never followed by one is the job's loss.
package flight

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"

	"bicriteria/internal/cluster"
	"bicriteria/internal/grid"
)

// Kind labels one stage of a job's flight.
type Kind string

// The flight stages in lifecycle order. KindResubmitted and KindLost are
// synthesized by Timeline from kill events; the others are recorded.
const (
	KindSubmitted   Kind = "submitted"
	KindRouted      Kind = "routed"
	KindMigrated    Kind = "migrated"
	KindBatched     Kind = "batched"
	KindPlanned     Kind = "planned"
	KindStarted     Kind = "started"
	KindKilled      Kind = "killed"
	KindResubmitted Kind = "resubmitted"
	KindLost        Kind = "lost"
	KindDone        Kind = "done"
)

// rank fixes the tiebreak order of kinds at equal timestamps (lifecycle
// order). The ranks are part of the total order behind byte-identical
// rendering — they must never change.
func (k Kind) rank() int {
	switch k {
	case KindSubmitted:
		return 0
	case KindRouted:
		return 1
	case KindMigrated:
		return 2
	case KindBatched:
		return 3
	case KindPlanned:
		return 4
	case KindStarted:
		return 5
	case KindKilled:
		return 6
	case KindResubmitted:
		return 7
	case KindLost:
		return 8
	case KindDone:
		return 9
	}
	return 10
}

// Verdict is one cluster's admission verdict attached to a routing event
// (the flight-side mirror of grid.ShardVerdict).
type Verdict struct {
	// Cluster indexes the grid's clusters.
	Cluster int `json:"cluster"`
	// Backlog is the cluster's estimated per-processor backlog at the
	// decision instant.
	Backlog float64 `json:"backlog"`
	// State is grid.VerdictChosen, VerdictOpen, VerdictOverBacklog or
	// VerdictOutage.
	State string `json:"state"`
}

// Event is one recorded stage of one job's flight. Fields beyond Kind,
// Job and Time are stage-specific; unused ones stay at their zero value
// and are elided from the JSONL encoding.
type Event struct {
	// Kind is the stage and Job the task ID it happened to.
	Kind Kind `json:"kind"`
	Job  int  `json:"job"`
	// Time is the absolute (simulated) time of the stage.
	Time float64 `json:"t"`
	// Cluster is the cluster index of the stage, -1 when no cluster is
	// involved (submission).
	Cluster int `json:"cluster"`
	// Batch is the batch index on the cluster, -1 before the job is
	// batched.
	Batch int `json:"batch"`
	// Backlog is the chosen cluster's backlog of a routed/migrated event.
	Backlog float64 `json:"backlog,omitempty"`
	// Verdicts carries every shard's admission verdict of a
	// routed/migrated event.
	Verdicts []Verdict `json:"verdicts,omitempty"`
	// Winner is the committed portfolio algorithm of a batched event.
	Winner string `json:"winner,omitempty"`
	// LowerBound is the batch's makespan lower bound of a batched event.
	LowerBound float64 `json:"lower_bound,omitempty"`
	// CutOff lists the portfolio algorithms cancelled by the racing early
	// cutoff on a batched event, in portfolio order. Absent when racing is
	// disabled or the cutoff never fired, so non-racing timelines keep
	// their exact wire format.
	CutOff []string `json:"cut_off,omitempty"`
	// Allotment is the number of processors of a planned/started event.
	Allotment int `json:"allotment,omitempty"`
	// End is the absolute end time of a started event (its completion).
	End float64 `json:"end,omitempty"`
}

// less is the total order of the recorder: time, then job, then the kind
// rank, then every remaining field (tiebreak). Two events that encode
// differently never compare equal under it, so sorting is deterministic
// whatever the arrival order.
func less(a, b *Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Job != b.Job {
		return a.Job < b.Job
	}
	if ra, rb := a.Kind.rank(), b.Kind.rank(); ra != rb {
		return ra < rb
	}
	if a.Cluster != b.Cluster {
		return a.Cluster < b.Cluster
	}
	if a.Batch != b.Batch {
		return a.Batch < b.Batch
	}
	if a.Allotment != b.Allotment {
		return a.Allotment < b.Allotment
	}
	if a.End != b.End {
		return a.End < b.End
	}
	if a.Winner != b.Winner {
		return a.Winner < b.Winner
	}
	return tiebreak(a, b) < 0
}

// tiebreak compares the fields less has not looked at yet. A recorded run
// never reaches it with two different events, so it orders no recorded
// timeline; a hand-written or corrupted trace can.
func tiebreak(a, b *Event) int {
	return cmp.Or(
		cmp.Compare(a.Kind, b.Kind), // kinds of equal rank: unknown ones
		compareFloat(a.Time, b.Time),
		compareFloat(a.End, b.End),
		compareFloat(a.Backlog, b.Backlog),
		compareFloat(a.LowerBound, b.LowerBound),
		slices.Compare(a.CutOff, b.CutOff),
		slices.CompareFunc(a.Verdicts, b.Verdicts, func(x, y Verdict) int {
			return cmp.Or(cmp.Compare(x.Cluster, y.Cluster), compareFloat(x.Backlog, y.Backlog), cmp.Compare(x.State, y.State))
		}),
	)
}

// compareFloat orders by value, then -0 before +0: the two zeros are equal
// but encode differently.
func compareFloat(a, b float64) int {
	if c := cmp.Compare(a, b); c != 0 {
		return c
	}
	switch sa, sb := math.Signbit(a), math.Signbit(b); {
	case sa == sb:
		return 0
	case sa:
		return -1
	}
	return 1
}

// Recorder accumulates flight events. It is safe for concurrent use: the
// serve layer's timeline reads share one recorder under a read lock, and
// the first Timeline builds the per-job index they all use.
type Recorder struct {
	mu     sync.Mutex
	events []Event
	// byJob indexes events by job: built by the first Timeline and kept
	// up to date by every later event, so a timeline costs O(that job's
	// events) instead of a scan.
	byJob map[int][]int
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Reset discards every recorded event: a runner calls it at the start of
// each replay so repeated Runs do not accumulate duplicate flights.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = r.events[:0]
	r.byJob = nil
}

// record takes mu and records one event verbatim.
func (r *Recorder) record(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.add(ev)
}

// add records one event; the caller holds mu.
func (r *Recorder) add(ev Event) {
	if r.byJob != nil {
		r.byJob[ev.Job] = append(r.byJob[ev.Job], len(r.events))
	}
	r.events = append(r.events, ev)
}

// Submitted records a job's submission (its release date). Cluster -1:
// no placement decision has been made yet.
func (r *Recorder) Submitted(job int, release float64) {
	r.record(Event{Kind: KindSubmitted, Job: job, Time: release, Cluster: -1, Batch: -1})
}

// OnDecision records one routing decision — a routed event, or a
// migrated one when the decision resubmits a job drained off a dark
// shard. It has the signature of scenario.Observer.Decision.
func (r *Recorder) OnDecision(d grid.Decision) {
	kind := KindRouted
	if d.Migrated {
		kind = KindMigrated
	}
	verdicts := make([]Verdict, len(d.Verdicts))
	for i, v := range d.Verdicts {
		verdicts[i] = Verdict{Cluster: v.Cluster, Backlog: v.Backlog, State: v.State}
	}
	r.record(Event{Kind: kind, Job: d.JobID, Time: d.Release, Cluster: d.Cluster, Batch: -1, Backlog: d.Backlog, Verdicts: verdicts})
}

// OnBatch records one committed batch: a batched event per member job
// (with the winner and the batch lower bound), planned/started/done
// events per realized placement, and a killed event per kill. It has the
// signature of scenario.Observer.Batch.
func (r *Recorder) OnBatch(clusterIdx int, br cluster.BatchReport) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range br.Jobs {
		r.add(Event{
			Kind: KindBatched, Job: id, Time: br.FireTime, Cluster: clusterIdx,
			Batch: br.Index, Winner: br.Winner, LowerBound: br.LowerBound,
			CutOff: br.CutOff,
		})
	}
	for _, p := range br.Placements {
		r.add(Event{Kind: KindPlanned, Job: p.TaskID, Time: br.FireTime, Cluster: clusterIdx, Batch: br.Index, Allotment: p.Procs})
		r.add(Event{Kind: KindStarted, Job: p.TaskID, Time: p.Start, Cluster: clusterIdx, Batch: br.Index, Allotment: p.Procs, End: p.End})
		r.add(Event{Kind: KindDone, Job: p.TaskID, Time: p.End, Cluster: clusterIdx, Batch: br.Index})
	}
	for _, k := range br.KillEvents {
		r.add(Event{Kind: KindKilled, Job: k.TaskID, Time: k.Time, Cluster: clusterIdx, Batch: k.Batch})
	}
}

// RecordDecision records one routing decision of a grid report: the
// job's submission — the router keeps release dates, so a first routing
// carries it — and the routed or migrated event.
func (r *Recorder) RecordDecision(d grid.Decision) {
	if !d.Migrated {
		r.Submitted(d.JobID, d.Release)
	}
	r.OnDecision(d)
}

// Events returns every recorded event in total order (a copy).
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return less(&out[i], &out[j]) })
	return out
}

// Jobs returns the distinct job IDs seen by the recorder, sorted.
func (r *Recorder) Jobs() []int {
	r.mu.Lock()
	seen := make(map[int]bool, len(r.events))
	for i := range r.events {
		seen[r.events[i].Job] = true
	}
	r.mu.Unlock()
	ids := make([]int, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Timeline returns one job's flight in total order, with the
// resubmitted/lost stage synthesized after every kill: a kill followed
// by a later batched event is a resubmission at the kill instant, the
// last kill of a job that never re-batches is its loss. Returns nil for
// a job the recorder never saw.
func (r *Recorder) Timeline(job int) []Event {
	evs := r.jobEvents(job)
	if evs == nil {
		return nil
	}
	sort.Slice(evs, func(i, j int) bool { return less(&evs[i], &evs[j]) })
	var out []Event
	for i, ev := range evs {
		out = append(out, ev)
		if ev.Kind != KindKilled {
			continue
		}
		rebatched := false
		for _, later := range evs[i+1:] {
			if later.Kind == KindBatched {
				rebatched = true
				break
			}
		}
		kind := KindLost
		if rebatched {
			kind = KindResubmitted
		}
		out = append(out, Event{Kind: kind, Job: ev.Job, Time: ev.Time, Cluster: ev.Cluster, Batch: ev.Batch})
	}
	return out
}

// jobEvents returns a copy of the job's events, in recording order.
func (r *Recorder) jobEvents(job int) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byJob == nil {
		r.byJob = make(map[int][]int)
		for i := range r.events {
			r.byJob[r.events[i].Job] = append(r.byJob[r.events[i].Job], i)
		}
	}
	var evs []Event
	for _, i := range r.byJob[job] {
		evs = append(evs, r.events[i])
	}
	return evs
}

// FromGridReport rebuilds a recorder from a finished grid report, for
// callers holding a report rather than an observer stream. Submissions
// are synthesized from the non-migrated routing decisions (see
// RecordDecision), batches come from the per-shard reports.
func FromGridReport(rep *grid.Report) *Recorder {
	r := NewRecorder()
	if rep == nil {
		return r
	}
	for _, d := range rep.Decisions {
		r.RecordDecision(d)
	}
	for c, crep := range rep.Clusters {
		if crep == nil {
			continue
		}
		for _, br := range crep.Batches {
			r.OnBatch(c, br)
		}
	}
	return r
}
