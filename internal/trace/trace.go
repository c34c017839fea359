// Package trace reads and writes job traces in a simplified Standard
// Workload Format (SWF), the text format of the Parallel Workloads Archive
// commonly used by the cluster-scheduling community (and by reference [18]
// of the paper for the Icluster workloads). It lets the library ingest real
// submission logs as on-line job streams and export simulated runs for
// external analysis.
//
// Each non-comment line has the 18 standard SWF fields; this package reads
// and writes the subset it needs (job id, submit, wait, run time, allocated
// processors, requested processors, requested time, status) and preserves
// -1 for unknown values as the format prescribes. Comment lines start with
// ';'.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"bicriteria/internal/moldable"
	"bicriteria/internal/schedule"
	"bicriteria/internal/workload"
)

// Record is one job of an SWF trace (times in the trace's unit, usually
// seconds; this library treats them as its abstract time unit).
type Record struct {
	// JobID is the job number (first SWF field).
	JobID int
	// Submit is the submission (release) time.
	Submit float64
	// Wait is the time spent in the queue (-1 when unknown).
	Wait float64
	// Run is the execution time (-1 when unknown).
	Run float64
	// Procs is the number of allocated processors (-1 when unknown).
	Procs int
	// ReqProcs is the number of requested processors (-1 when unknown).
	ReqProcs int
	// ReqTime is the requested (estimated) run time (-1 when unknown).
	ReqTime float64
	// Status is the SWF completion status (1 = completed).
	Status int
}

// Write emits the records as an SWF fragment with a small header.
func Write(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "; SWF trace written by the bicriteria scheduling library")
	fmt.Fprintln(bw, "; fields: job submit wait run procs cpu mem reqprocs reqtime reqmem status uid gid exe queue partition prev think")
	for _, r := range records {
		fmt.Fprintf(bw, "%d %s %s %s %d -1 -1 %d %s -1 %d -1 -1 -1 -1 -1 -1 -1\n",
			r.JobID,
			formatTime(r.Submit), formatTime(r.Wait), formatTime(r.Run),
			r.Procs, r.ReqProcs, formatTime(r.ReqTime), r.Status)
	}
	return bw.Flush()
}

func formatTime(v float64) string {
	if v < 0 {
		return "-1"
	}
	return strconv.FormatFloat(v, 'f', 2, 64)
}

// Parse reads an SWF fragment, skipping comments and blank lines.
func Parse(r io.Reader) ([]Record, error) {
	var out []Record
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for scanner.Scan() {
		line++
		text := strings.TrimSpace(scanner.Text())
		if text == "" || strings.HasPrefix(text, ";") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 11 {
			return nil, fmt.Errorf("trace: line %d has %d fields, want at least 11", line, len(fields))
		}
		rec, err := parseRecord(fields)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseRecord(fields []string) (Record, error) {
	var rec Record
	var err error
	if rec.JobID, err = strconv.Atoi(fields[0]); err != nil {
		return rec, fmt.Errorf("bad job id %q", fields[0])
	}
	floatField := func(idx int) (float64, error) {
		v, err := strconv.ParseFloat(fields[idx], 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("bad field %d %q: want a finite number", idx, fields[idx])
		}
		return v, nil
	}
	intField := func(idx int) (int, error) {
		v, err := strconv.Atoi(fields[idx])
		if err != nil {
			return 0, fmt.Errorf("bad field %d %q", idx, fields[idx])
		}
		return v, nil
	}
	if rec.Submit, err = floatField(1); err != nil {
		return rec, err
	}
	if rec.Wait, err = floatField(2); err != nil {
		return rec, err
	}
	if rec.Run, err = floatField(3); err != nil {
		return rec, err
	}
	if rec.Procs, err = intField(4); err != nil {
		return rec, err
	}
	if rec.ReqProcs, err = intField(7); err != nil {
		return rec, err
	}
	if rec.ReqTime, err = floatField(8); err != nil {
		return rec, err
	}
	if rec.Status, err = intField(10); err != nil {
		return rec, err
	}
	return rec, nil
}

// FromSchedule exports a planned or simulated run as SWF records: the
// submission time comes from the release map (0 when absent), the wait time
// is start minus submission, the run time and allocation come from the
// assignment.
func FromSchedule(inst *moldable.Instance, sched *schedule.Schedule, releases map[int]float64) []Record {
	records := make([]Record, 0, len(sched.Assignments))
	for i := range sched.Assignments {
		a := &sched.Assignments[i]
		submit := releases[a.TaskID]
		records = append(records, Record{
			JobID:    a.TaskID,
			Submit:   submit,
			Wait:     a.Start - submit,
			Run:      a.Duration,
			Procs:    a.NProcs,
			ReqProcs: a.NProcs,
			ReqTime:  a.Duration,
			Status:   1,
		})
	}
	sort.SliceStable(records, func(a, b int) bool {
		if records[a].Submit != records[b].Submit {
			return records[a].Submit < records[b].Submit
		}
		return records[a].JobID < records[b].JobID
	})
	return records
}

// MoldableOptions drives the reconstruction of moldable tasks from the
// rigid jobs of a trace.
type MoldableOptions struct {
	// Sigma is the Downey curvature parameter used for every reconstructed
	// job (default 1).
	Sigma float64
	// DefaultWeight is the priority given to every job (default 1).
	DefaultWeight float64
}

// ToTasks reconstructs moldable tasks from rigid trace records, following
// the Cirne–Berman idea of re-moldabilizing rigid traces: each job is given
// a Downey speedup curve whose average parallelism equals its recorded
// allocation, calibrated so that the reconstructed processing time at the
// recorded allocation equals the recorded run time. Records without a
// positive run time or allocation are skipped.
func ToTasks(records []Record, m int, opts *MoldableOptions) []moldable.Task {
	sigma := 1.0
	weight := 1.0
	if opts != nil {
		if opts.Sigma > 0 {
			sigma = opts.Sigma
		}
		if opts.DefaultWeight > 0 {
			weight = opts.DefaultWeight
		}
	}
	var tasks []moldable.Task
	for _, r := range records {
		if r.Run <= 0 {
			continue
		}
		procs := r.Procs
		if procs <= 0 {
			procs = r.ReqProcs
		}
		if procs <= 0 {
			continue
		}
		if procs > m {
			procs = m
		}
		a := float64(procs)
		// Calibrate the sequential time so that p(procs) = Run.
		seq := r.Run * workload.DowneySpeedup(a, sigma, procs)
		times := make([]float64, m)
		for k := 1; k <= m; k++ {
			times[k-1] = seq / workload.DowneySpeedup(a, sigma, k)
		}
		workload.EnforceMonotony(times)
		tasks = append(tasks, moldable.Task{ID: r.JobID, Weight: weight, Times: times})
	}
	return tasks
}

// Releases extracts the submission times of the records, keyed by job ID.
func Releases(records []Record) map[int]float64 {
	out := make(map[int]float64, len(records))
	for _, r := range records {
		submit := r.Submit
		if submit < 0 {
			submit = 0
		}
		out[r.JobID] = submit
	}
	return out
}
