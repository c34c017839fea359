package flight

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// FormatTimeline renders one job's timeline as human-readable text — the
// body of `bicrit explain`. The output is a pure function of the events,
// so byte-identical reports (the determinism guarantee) render
// byte-identical timelines.
func FormatTimeline(w io.Writer, job int, events []Event) error {
	if len(events) == 0 {
		_, err := fmt.Fprintf(w, "job %d: no recorded events\n", job)
		return err
	}
	if _, err := fmt.Fprintf(w, "job %d — %d events\n", job, len(events)); err != nil {
		return err
	}
	for _, ev := range events {
		if _, err := fmt.Fprintf(w, "  t=%-12g %s\n", ev.Time, describe(ev)); err != nil {
			return err
		}
	}
	return nil
}

// describe renders the "why" of one event.
func describe(ev Event) string {
	switch ev.Kind {
	case KindSubmitted:
		return "submitted"
	case KindRouted, KindMigrated:
		verb := "routed to"
		if ev.Kind == KindMigrated {
			verb = "migrated to"
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "%s cluster %d (backlog %g)", verb, ev.Cluster, ev.Backlog)
		if len(ev.Verdicts) > 0 {
			sb.WriteString(" — verdicts:")
			for _, v := range ev.Verdicts {
				fmt.Fprintf(&sb, " %d:%s(%g)", v.Cluster, v.State, v.Backlog)
			}
		}
		return sb.String()
	case KindBatched:
		var sb strings.Builder
		fmt.Fprintf(&sb, "batched on cluster %d batch %d — winner %s, batch lower bound %g", ev.Cluster, ev.Batch, ev.Winner, ev.LowerBound)
		if len(ev.CutOff) > 0 {
			fmt.Fprintf(&sb, ", cut off %s", strings.Join(ev.CutOff, ", "))
		}
		return sb.String()
	case KindPlanned:
		return fmt.Sprintf("planned at %d procs (cluster %d batch %d)", ev.Allotment, ev.Cluster, ev.Batch)
	case KindStarted:
		return fmt.Sprintf("started on cluster %d with %d procs (until t=%g)", ev.Cluster, ev.Allotment, ev.End)
	case KindKilled:
		return fmt.Sprintf("killed by an outage on cluster %d (batch %d)", ev.Cluster, ev.Batch)
	case KindResubmitted:
		return "resubmitted to the queue"
	case KindLost:
		return "lost (retry budget exhausted)"
	case KindDone:
		return fmt.Sprintf("done on cluster %d", ev.Cluster)
	}
	return string(ev.Kind)
}

// header is the first JSONL record of a recorded flight trace: the format
// sentinel `bicrit explain` sniffs to tell a flight trace from a scenario
// file, plus a format version for forward compatibility.
type header struct {
	FlightFormat int `json:"flight_format"`
}

// FormatVersion is the JSONL trace format version.
const FormatVersion = 1

// WriteJSONL writes the recorder's events in total order as JSON lines,
// preceded by a one-line format header.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	hdr, err := json.Marshal(header{FlightFormat: FormatVersion})
	if err != nil {
		return err
	}
	bw.Write(hdr)
	bw.WriteByte('\n')
	for _, ev := range r.Events() {
		line, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		bw.Write(line)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// IsTrace reports whether data starts with the flight JSONL header —
// the sniff `bicrit explain` uses to tell a recorded trace from a
// scenario file.
func IsTrace(data []byte) bool {
	line := data
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		line = data[:i]
	}
	var h header
	if err := json.Unmarshal(line, &h); err != nil {
		return false
	}
	return h.FlightFormat > 0
}

// ReadJSONL loads a recorded flight trace written by WriteJSONL.
func ReadJSONL(rd io.Reader) (*Recorder, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("flight: empty trace")
	}
	var h header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil || h.FlightFormat <= 0 {
		return nil, fmt.Errorf("flight: not a flight trace (missing flight_format header)")
	}
	if h.FlightFormat > FormatVersion {
		return nil, fmt.Errorf("flight: trace format %d is newer than this binary's %d", h.FlightFormat, FormatVersion)
	}
	r := NewRecorder()
	line := 1
	for sc.Scan() {
		line++
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("flight: line %d: %w", line, err)
		}
		r.record(ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return r, nil
}
