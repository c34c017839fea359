package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// This file renders a finished run's event trace (the trace section of a
// scenario, `bicrit run -trace`). The report is the run's one event log:
// every event is rebuilt from it after the run, stamped with simulated
// time only, so a seeded replay renders the same bytes whether it ran
// sequentially or concurrently. testdata/trace.*.golden pins both formats.

// Trace output formats.
const (
	traceJSONL  = "jsonl"
	traceChrome = "chrome"
)

// traceKind classifies a trace event.
type traceKind string

const (
	// kindBatch is one committed batch on a cluster: Start is the fire
	// time, End the fire time plus the realized makespan, Name the winning
	// portfolio algorithm.
	kindBatch traceKind = "batch"
	// kindDecision is one routing decision of the grid router: Job routed
	// to Cluster at Start (the release time), with the router's backlog
	// estimate in Backlog.
	kindDecision traceKind = "decision"
	// kindKill is one task killed by an outage: Job on Cluster in Batch,
	// started at Start, killed at End.
	kindKill traceKind = "kill"
	// kindMigration is a resubmission decision after a shard outage: Job
	// re-routed to Cluster at the outage instant Start.
	kindMigration traceKind = "migration"
	// kindDrain is the run-level summary event closing a trace: Start is
	// 0, End the run's makespan, Tasks the number of jobs of the stream.
	kindDrain traceKind = "drain"
)

// rank orders kinds within one (Start, Cluster) group of the total event
// order. The ordering is arbitrary but must never change: it is part of
// the rendered bytes.
func (k traceKind) rank() int {
	switch k {
	case kindDecision:
		return 0
	case kindMigration:
		return 1
	case kindBatch:
		return 2
	case kindKill:
		return 3
	case kindDrain:
		return 4
	}
	return 5
}

// traceEvent is one trace event, stamped with simulated time. Cluster is
// -1 for the drain event; Batch and Job are -1 when the kind carries none.
type traceEvent struct {
	Kind    traceKind `json:"kind"`
	Cluster int       `json:"cluster"`
	Batch   int       `json:"batch"`
	Job     int       `json:"job"`
	Name    string    `json:"name,omitempty"`
	Start   float64   `json:"start"`
	End     float64   `json:"end"`
	Tasks   int       `json:"tasks,omitempty"`
	Backlog float64   `json:"backlog,omitempty"`
}

// less is the total order events are rendered in: no two distinct events
// of a seeded run tie under it.
func (e traceEvent) less(o traceEvent) bool {
	if e.Start != o.Start {
		return e.Start < o.Start
	}
	if e.Cluster != o.Cluster {
		return e.Cluster < o.Cluster
	}
	if e.Kind != o.Kind {
		return e.Kind.rank() < o.Kind.rank()
	}
	if e.Batch != o.Batch {
		return e.Batch < o.Batch
	}
	if e.Job != o.Job {
		return e.Job < o.Job
	}
	return e.End < o.End
}

// traceEvents rebuilds a run's events from its report: every routing
// decision (a migration when it moved a job off a dark shard), every
// committed batch and the kills it suffered, and the closing drain.
func traceEvents(rep *Report) []traceEvent {
	var events []traceEvent
	for _, d := range rep.decisions() {
		kind := kindDecision
		if d.Migrated {
			kind = kindMigration
		}
		events = append(events, traceEvent{
			Kind: kind, Cluster: d.Cluster, Batch: -1, Job: d.JobID,
			Start: d.Release, End: d.Release, Backlog: d.Backlog,
		})
	}
	for c, crep := range rep.clusters() {
		for _, br := range crep.Batches {
			events = append(events, traceEvent{
				Kind: kindBatch, Cluster: c, Batch: br.Index, Job: -1, Name: br.Winner,
				Start: br.FireTime, End: br.FireTime + br.RealizedMakespan, Tasks: len(br.Jobs),
			})
			for _, k := range br.KillEvents {
				events = append(events, traceEvent{
					Kind: kindKill, Cluster: c, Batch: k.Batch, Job: k.TaskID,
					Start: k.Start, End: k.Time,
				})
			}
		}
	}
	return append(events, traceEvent{
		Kind: kindDrain, Cluster: -1, Batch: -1, Job: -1,
		Start: 0, End: rep.Makespan(), Tasks: rep.Jobs,
	})
}

// WriteTrace renders the event trace of a finished run in the named
// format: "jsonl" (one event per line) or "chrome" (Chrome trace-event
// JSON); an empty format means chrome.
func WriteTrace(w io.Writer, format string, rep *Report) error {
	return writeTrace(w, format, traceEvents(rep))
}

// writeTrace sorts events under the total order and renders them.
func writeTrace(w io.Writer, format string, events []traceEvent) error {
	sort.Slice(events, func(i, j int) bool { return events[i].less(events[j]) })
	switch format {
	case traceJSONL:
		return writeTraceJSONL(w, events)
	case traceChrome, "":
		return writeChromeTrace(w, events)
	}
	return fmt.Errorf("scenario: unknown trace format %q", format)
}

// writeTraceJSONL renders one event per line.
func writeTraceJSONL(w io.Writer, events []traceEvent) error {
	for _, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// chromeEvent is one entry of the Chrome trace-event format. Field order
// is fixed by the struct, keeping the rendered bytes deterministic.
type chromeEvent struct {
	Name string      `json:"name"`
	Ph   string      `json:"ph"`
	Ts   float64     `json:"ts"`
	Dur  float64     `json:"dur,omitempty"`
	Pid  int         `json:"pid"`
	Tid  int         `json:"tid"`
	S    string      `json:"s,omitempty"`
	Args *chromeArgs `json:"args,omitempty"`
}

// chromeArgs carries the event detail shown in the viewer's args pane.
type chromeArgs struct {
	Name    string  `json:"name,omitempty"`
	Batch   int     `json:"batch,omitempty"`
	Job     int     `json:"job,omitempty"`
	Tasks   int     `json:"tasks,omitempty"`
	Backlog float64 `json:"backlog,omitempty"`
}

// chromeTrace is the top-level trace-event JSON object.
type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

// pid maps a cluster index onto a Chrome process track: cluster i is
// pid i+1, run-level events (cluster -1) are pid 0.
func pid(cluster int) int {
	if cluster < 0 {
		return 0
	}
	return cluster + 1
}

// writeChromeTrace renders the events as Chrome trace-event JSON: one
// process track per cluster (plus a "grid" track for run-level events),
// batches as complete ("X") spans, everything else as instants. One
// simulated time unit maps to one displayed millisecond (ts is in
// microseconds). The output loads in perfetto or chrome://tracing as a
// machine-readable Gantt of the replay.
func writeChromeTrace(w io.Writer, events []traceEvent) error {
	trace := chromeTrace{DisplayTimeUnit: "ms"}

	// Name every track up front, grid first, clusters in index order.
	pids := map[int]string{}
	for _, ev := range events {
		p := pid(ev.Cluster)
		if _, ok := pids[p]; !ok {
			if p == 0 {
				pids[p] = "grid"
			} else {
				pids[p] = fmt.Sprintf("cluster %d", ev.Cluster)
			}
		}
	}
	order := make([]int, 0, len(pids))
	for p := range pids {
		order = append(order, p)
	}
	sort.Ints(order)
	for _, p := range order {
		trace.TraceEvents = append(trace.TraceEvents, chromeEvent{
			Name: "process_name",
			Ph:   "M",
			Pid:  p,
			Args: &chromeArgs{Name: pids[p]},
		})
	}

	for _, ev := range events {
		ce := chromeEvent{
			Ts:  ev.Start * 1000,
			Pid: pid(ev.Cluster),
			Tid: 1,
		}
		switch ev.Kind {
		case kindBatch:
			ce.Name = fmt.Sprintf("batch %d (%s)", ev.Batch, ev.Name)
			ce.Ph = "X"
			ce.Dur = (ev.End - ev.Start) * 1000
			ce.Args = &chromeArgs{Batch: ev.Batch, Tasks: ev.Tasks}
		case kindDecision:
			ce.Name = fmt.Sprintf("route job %d", ev.Job)
			ce.Ph = "i"
			ce.S = "t"
			ce.Args = &chromeArgs{Job: ev.Job, Backlog: ev.Backlog}
		case kindMigration:
			ce.Name = fmt.Sprintf("migrate job %d", ev.Job)
			ce.Ph = "i"
			ce.S = "t"
			ce.Args = &chromeArgs{Job: ev.Job, Backlog: ev.Backlog}
		case kindKill:
			ce.Name = fmt.Sprintf("kill job %d", ev.Job)
			ce.Ph = "i"
			ce.S = "t"
			ce.Ts = ev.End * 1000 // the kill instant, not the task start
			ce.Args = &chromeArgs{Batch: ev.Batch, Job: ev.Job}
		case kindDrain:
			ce.Name = "drain"
			ce.Ph = "X"
			ce.Dur = (ev.End - ev.Start) * 1000
			ce.Args = &chromeArgs{Tasks: ev.Tasks}
		}
		trace.TraceEvents = append(trace.TraceEvents, ce)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(trace)
}
