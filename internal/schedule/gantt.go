package schedule

import (
	"fmt"
	"sort"
	"strings"
)

// Gantt renders an ASCII Gantt chart of the schedule, one row per
// processor, using width character columns for the [0, makespan] interval.
// Tasks are labelled with the last decimal digits of their ID; idle time is
// shown as '.'. Assignments without explicit processors are drawn on a
// synthetic capacity row.
//
// The output is meant for debugging, examples and CLI display only.
func (s *Schedule) Gantt(width int) string {
	if width < 10 {
		width = 10
	}
	cmax := s.Makespan()
	if cmax <= 0 || s.M == 0 {
		return "(empty schedule)\n"
	}
	grid := make([][]byte, s.M)
	for p := range grid {
		grid[p] = []byte(strings.Repeat(".", width))
	}
	assignments := make([]Assignment, len(s.Assignments))
	copy(assignments, s.Assignments)
	sort.Slice(assignments, func(i, j int) bool { return assignments[i].Start < assignments[j].Start })
	for _, a := range assignments {
		if a.Procs == nil {
			continue
		}
		from := int(a.Start / cmax * float64(width))
		to := int(a.End() / cmax * float64(width))
		if to <= from {
			to = from + 1
		}
		if to > width {
			to = width
		}
		label := byte('0' + a.TaskID%10)
		for _, p := range a.Procs {
			if p < 0 || p >= s.M {
				continue
			}
			for c := from; c < to; c++ {
				grid[p][c] = label
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Gantt chart: %d processors, makespan %.3f, utilization %.1f%%\n", s.M, cmax, 100*s.utilization())
	for p := 0; p < s.M; p++ {
		fmt.Fprintf(&b, "P%03d |%s|\n", p, grid[p])
	}
	return b.String()
}

// String summarizes the schedule (one line per assignment, sorted by start
// time then task ID).
func (s *Schedule) String() string {
	assignments := make([]Assignment, len(s.Assignments))
	copy(assignments, s.Assignments)
	sort.Slice(assignments, func(i, j int) bool {
		if assignments[i].Start != assignments[j].Start {
			return assignments[i].Start < assignments[j].Start
		}
		return assignments[i].TaskID < assignments[j].TaskID
	})
	var b strings.Builder
	fmt.Fprintf(&b, "schedule on %d processors, %d tasks, Cmax=%.3f\n", s.M, len(assignments), s.Makespan())
	for _, a := range assignments {
		fmt.Fprintf(&b, "  task %4d: start=%8.3f end=%8.3f procs=%3d\n", a.TaskID, a.Start, a.End(), a.NProcs)
	}
	return b.String()
}
