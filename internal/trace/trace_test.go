package trace

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"bicriteria/internal/cluster"
	"bicriteria/internal/core"
	"bicriteria/internal/moldable"
	"bicriteria/internal/schedule"
)

func sampleRecords() []Record {
	return []Record{
		{JobID: 1, Submit: 0, Wait: 0, Run: 120, Procs: 4, ReqProcs: 4, ReqTime: 150, Status: 1},
		{JobID: 2, Submit: 30, Wait: 90, Run: 60, Procs: 1, ReqProcs: 2, ReqTime: 60, Status: 1},
		{JobID: 3, Submit: 45, Wait: -1, Run: -1, Procs: -1, ReqProcs: 8, ReqTime: 600, Status: 0},
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, ";") {
		t.Fatalf("missing header comment:\n%s", out)
	}
	back, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 {
		t.Fatalf("parsed %d records, want 3", len(back))
	}
	if back[0].JobID != 1 || back[0].Procs != 4 || math.Abs(back[0].Run-120) > 1e-9 {
		t.Fatalf("record 0 mangled: %+v", back[0])
	}
	if back[2].Run != -1 || back[2].Procs != -1 {
		t.Fatalf("unknown values must stay -1: %+v", back[2])
	}
}

func TestParseSkipsCommentsAndBlankLines(t *testing.T) {
	in := `
; comment line
; another

1 0 0 10 2 -1 -1 2 10 -1 1 -1 -1 -1 -1 -1 -1 -1
`
	recs, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].JobID != 1 {
		t.Fatalf("unexpected records: %+v", recs)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"1 2 3",                         // too few fields
		"x 0 0 10 2 -1 -1 2 10 -1 1",    // bad job id
		"1 y 0 10 2 -1 -1 2 10 -1 1",    // bad submit
		"1 0 0 10 z -1 -1 2 10 -1 1",    // bad procs
		"1 0 0 10 2 -1 -1 q 10 -1 1",    // bad reqprocs
		"1 0 0 10 2 -1 -1 2 10 -1 w",    // bad status
		"1 NaN 0 10 2 -1 -1 2 10 -1 1",  // non-finite submit
		"1 0 -Inf 10 2 -1 -1 2 10 -1 1", // non-finite wait
		"1 0 0 +Inf 2 -1 -1 2 10 -1 1",  // non-finite run
		"1 0 0 10 2 -1 -1 2 inf -1 1",   // non-finite requested time
	}
	for i, c := range cases {
		if _, err := Parse(strings.NewReader(c)); err == nil {
			t.Errorf("case %d should fail: %q", i, c)
		}
	}
}

func TestFromScheduleExportsAssignments(t *testing.T) {
	inst := moldable.NewInstance(4, []moldable.Task{
		{ID: 0, Weight: 1, Times: []float64{8, 5, 4, 3.5}},
		moldable.Sequential(1, 2, 3),
	})
	s := schedule.New(4)
	s.Add(schedule.Assignment{TaskID: 0, Start: 2, NProcs: 2, Procs: []int{0, 1}, Duration: 5})
	s.Add(schedule.Assignment{TaskID: 1, Start: 0, NProcs: 1, Procs: []int{2}, Duration: 3})
	releases := map[int]float64{0: 1, 1: 0}
	records := FromSchedule(inst, s, releases)
	if len(records) != 2 {
		t.Fatalf("expected 2 records")
	}
	// Sorted by submit time: job 1 first.
	if records[0].JobID != 1 || records[1].JobID != 0 {
		t.Fatalf("wrong order: %+v", records)
	}
	if math.Abs(records[1].Wait-1) > 1e-9 {
		t.Fatalf("job 0 wait = %g, want 1", records[1].Wait)
	}
	if records[1].Procs != 2 || math.Abs(records[1].Run-5) > 1e-9 {
		t.Fatalf("job 0 export wrong: %+v", records[1])
	}
}

func TestToTasksReconstruction(t *testing.T) {
	records := []Record{
		{JobID: 1, Submit: 0, Run: 100, Procs: 8, Status: 1},
		{JobID: 2, Submit: 5, Run: 50, Procs: 1, Status: 1},
		{JobID: 3, Submit: 9, Run: -1, Procs: 4, Status: 0},                // skipped: no run time
		{JobID: 4, Submit: 9, Run: 10, Procs: -1, ReqProcs: 64, Status: 1}, // clamped to m
	}
	tasks := ToTasks(records, 16, nil)
	if len(tasks) != 3 {
		t.Fatalf("expected 3 reconstructed tasks, got %d", len(tasks))
	}
	inst := moldable.NewInstance(16, tasks)
	if err := inst.Validate(); err != nil {
		t.Fatalf("reconstructed instance invalid: %v", err)
	}
	if !inst.IsMonotonic() {
		t.Fatalf("reconstructed tasks must be monotonic")
	}
	// Calibration: the processing time at the recorded allocation equals
	// the recorded run time.
	if got := tasks[0].Time(8); math.Abs(got-100) > 1e-6 {
		t.Fatalf("task 1 p(8) = %g, want 100", got)
	}
	if got := tasks[1].Time(1); math.Abs(got-50) > 1e-6 {
		t.Fatalf("task 2 p(1) = %g, want 50", got)
	}
	// Task 4 requested 64 processors, clamped to the 16-processor machine.
	if got := tasks[2].Time(16); math.Abs(got-10) > 1e-6 {
		t.Fatalf("task 4 p(16) = %g, want 10", got)
	}
	// Custom weight.
	weighted := ToTasks(records[:1], 8, &MoldableOptions{DefaultWeight: 5, Sigma: 0.5})
	if weighted[0].Weight != 5 {
		t.Fatalf("custom weight not applied")
	}
}

func TestReleases(t *testing.T) {
	rel := Releases([]Record{{JobID: 3, Submit: 7}, {JobID: 4, Submit: -1}})
	if rel[3] != 7 || rel[4] != 0 {
		t.Fatalf("releases wrong: %v", rel)
	}
}

// TestEndToEndTraceDrivenScheduling replays a trace through a batch-on-idle
// cluster engine (the on-line batch framework) and exports the result back to SWF.
func TestEndToEndTraceDrivenScheduling(t *testing.T) {
	records := []Record{
		{JobID: 0, Submit: 0, Run: 6, Procs: 4, Status: 1},
		{JobID: 1, Submit: 0, Run: 3, Procs: 1, Status: 1},
		{JobID: 2, Submit: 4, Run: 5, Procs: 2, Status: 1},
		{JobID: 3, Submit: 10, Run: 2, Procs: 8, Status: 1},
	}
	const m = 8
	tasks := ToTasks(records, m, nil)
	releases := Releases(records)
	jobs := make([]cluster.Job, len(tasks))
	for i, task := range tasks {
		jobs[i] = cluster.Job{Task: task, Release: releases[task.ID]}
	}
	eng, err := cluster.New(cluster.Config{
		M:         m,
		Portfolio: []cluster.Algorithm{cluster.DEMTAlgorithm(&core.Options{Shuffles: 2})},
		Policy:    cluster.BatchOnIdle(),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunContext(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	inst := moldable.NewInstance(m, tasks)
	if err := res.Schedule.Validate(inst, &schedule.ValidateOptions{ReleaseDates: releases}); err != nil {
		t.Fatalf("invalid schedule: %v", err)
	}
	exported := FromSchedule(inst, res.Schedule, releases)
	if len(exported) != len(tasks) {
		t.Fatalf("export lost records")
	}
	var buf bytes.Buffer
	if err := Write(&buf, exported); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(tasks) {
		t.Fatalf("round trip lost records")
	}
}

func TestPropertyWriteParseRoundTrip(t *testing.T) {
	f := func(ids []uint8) bool {
		var records []Record
		for i, raw := range ids {
			records = append(records, Record{
				JobID:    i,
				Submit:   float64(raw % 50),
				Wait:     float64(raw % 7),
				Run:      float64(raw%20) + 0.25,
				Procs:    1 + int(raw)%16,
				ReqProcs: 1 + int(raw)%16,
				ReqTime:  float64(raw%30) + 1,
				Status:   1,
			})
		}
		var buf bytes.Buffer
		if err := Write(&buf, records); err != nil {
			return false
		}
		back, err := Parse(&buf)
		if err != nil || len(back) != len(records) {
			return false
		}
		for i := range records {
			if back[i].JobID != records[i].JobID || back[i].Procs != records[i].Procs {
				return false
			}
			if math.Abs(back[i].Run-records[i].Run) > 0.01 || math.Abs(back[i].Submit-records[i].Submit) > 0.01 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
