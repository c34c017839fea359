package serve

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"bicriteria/internal/cluster"
	"bicriteria/internal/faults"
	"bicriteria/internal/flight"
	"bicriteria/internal/grid"
	"bicriteria/internal/obs"
	"bicriteria/internal/validate"
	"bicriteria/internal/workload"
)

// referenceApply is the registry rule of the full-replay refresher this
// package used before its trusted session: fold a replay report of the
// whole stream into the registry, trusting only the prefix strictly fixed
// before vnow (everything when final). The differential test holds the
// incremental refresher to it.
func referenceApply(reg *registry, rep *grid.Report, vnow float64, final bool) {
	for _, d := range rep.Decisions {
		if final || d.Release < vnow-eps {
			reg.setRouting(d.JobID, d.Cluster)
		}
	}
	for _, crep := range rep.Clusters {
		fired := make(map[int]bool)
		for bi, b := range crep.Batches {
			if !final && b.FireTime >= vnow-eps {
				continue
			}
			for _, id := range b.Jobs {
				fired[id] = true
				reg.markBatched(id, bi)
			}
		}
		for _, a := range crep.Schedule.Assignments {
			if !fired[a.TaskID] {
				continue
			}
			end := a.End()
			switch {
			case final || end <= vnow:
				reg.markDone(a.TaskID, a.Start, end)
			case a.Start <= vnow:
				reg.markRunning(a.TaskID, a.Start, end)
			default:
				reg.markScheduled(a.TaskID, a.Start, end)
			}
		}
		counts := make(map[int]int)
		for _, b := range crep.Batches {
			for _, k := range b.KillEvents {
				if final || k.Time < vnow-eps {
					counts[k.TaskID]++
				}
			}
		}
		for id, n := range counts {
			reg.markResubmitted(id, n)
		}
	}
}

// referenceTimeline renders the GET /jobs/{id}/timeline body the
// full-replay refresher served: the flight recorder rebuilt from the
// replay report (rec), cut at the capture time's margin.
func referenceTimeline(rec *flight.Recorder, at float64, id int, release float64) []byte {
	resp := timelineResponse{Job: id, Events: []flight.Event{}}
	if math.IsInf(at, 1) {
		resp.Final = true
	} else {
		resp.TrustedTo = &at
	}
	for _, ev := range rec.Timeline(id) {
		if resp.Final || ev.Time < at-eps {
			resp.Events = append(resp.Events, ev)
		}
	}
	if len(resp.Events) == 0 {
		resp.Events = append(resp.Events, flight.Event{Kind: flight.KindSubmitted, Job: id, Time: release, Cluster: -1, Batch: -1})
	}
	w := httptest.NewRecorder()
	writeJSON(w, http.StatusOK, resp)
	return w.Body.Bytes()
}

// TestRefreshMatchesFullReplay is the differential test of the trusted
// session: a faulted, racing ~2k-job stream submitted on a fake clock,
// refreshed by hand every tick, must leave at every tick the registry,
// the timelines and the /metrics grid block exactly where a from-scratch
// replay of the accepted stream with the full-replay prefix rules puts
// them — and the drain must equal the offline replay, with every
// committed batch counted once in the racing counters.
func TestRefreshMatchesFullReplay(t *testing.T) {
	gridCfg := func() grid.Config {
		sizes := []int{8, 8, 4, 4}
		specs := make([]grid.ClusterSpec, len(sizes))
		for i, m := range sizes {
			specs[i] = grid.ClusterSpec{M: m, Racing: cluster.Racing{Cutoff: 2, Bandit: true, Seed: 3}}
		}
		plan, err := faults.Generate(faults.Config{
			Seed: 5, Horizon: 400, Clusters: sizes,
			MTBF: 60, RepairMean: 4, ShardMTBF: 40, ShardRepairMean: 6,
		})
		if err != nil {
			t.Fatal(err)
		}
		return grid.Config{Clusters: specs, Routing: grid.LeastBacklog(), AdmitBacklog: 6, Faults: plan}
	}
	arrivals, err := workload.GenerateArrivals(workload.ArrivalConfig{
		Workload:  workload.Config{Kind: workload.Mixed, M: 8, N: 2000, Seed: 17},
		Rate:      6,
		BurstSize: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	const speedup = 0.5 // a nanosecond of wall clock is half an eps
	s, clock := newTestServer(t, func(c *Config) {
		c.Grid = gridCfg()
		c.Speedup = speedup
	})
	ref, err := grid.New(gridCfg())
	if err != nil {
		t.Fatal(err)
	}
	refReg := newRegistry()
	var accepted []cluster.Job
	handler := s.Handler()
	timeline := func(id int) []byte {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/jobs/"+strconv.Itoa(id)+"/timeline", nil))
		return rec.Body.Bytes()
	}
	compare := func(tick int, rep *grid.Report, at float64) {
		t.Helper()
		for _, j := range accepted {
			got, _ := s.reg.get(j.Task.ID)
			want, _ := refReg.get(j.Task.ID)
			if got != want {
				t.Fatalf("tick %d: job %d is %+v, the full replay says %+v", tick, j.Task.ID, got, want)
			}
		}
		if !reflect.DeepEqual(s.reg.stateCounts(), refReg.stateCounts()) {
			t.Fatalf("tick %d: state counts %v, want %v", tick, s.reg.stateCounts(), refReg.stateCounts())
		}
		s.liveMu.RLock()
		live := s.live
		s.liveMu.RUnlock()
		if !reflect.DeepEqual(*live, rep.Metrics) {
			t.Fatalf("tick %d: /metrics grid block differs from the full replay's", tick)
		}
		// Every job's timeline at every eighth tick and the drain, a
		// rotating eighth of them otherwise.
		refRec := flight.FromGridReport(rep)
		for k, j := range accepted {
			if !math.IsInf(at, 1) && tick%8 != 0 && k%8 != tick%8 {
				continue
			}
			if got, want := timeline(j.Task.ID), referenceTimeline(refRec, at, j.Task.ID, j.Release); !bytes.Equal(got, want) {
				t.Fatalf("tick %d: timeline of job %d\n%s\nfull replay\n%s", tick, j.Task.ID, got, want)
			}
		}
	}

	const perTick = 100
	for tick := 0; len(accepted) < len(arrivals); tick++ {
		for _, a := range arrivals[len(accepted):min(len(accepted)+perTick, len(arrivals))] {
			if gap := a.Submit - s.now(); gap > 0 {
				clock.advance(time.Duration(gap / speedup * float64(time.Second)))
			}
			acc, err := s.Submit(a.Task)
			if err != nil {
				t.Fatal(err)
			}
			pmin, _ := a.Task.MinTime()
			refReg.add(a.Task.ID, a.Task.Name, a.Task.Weight, acc.Release, pmin)
			accepted = append(accepted, cluster.Job{Task: a.Task, Release: acc.Release})
		}
		// Refresh at the last release, half an eps after it — inside the
		// margin, where a routing is made but not yet trusted — or well
		// after it.
		switch tick % 3 {
		case 1:
			clock.advance(time.Nanosecond)
		case 2:
			clock.advance(2 * time.Second)
		}
		vnow := s.now()
		if err := s.refresh(); err != nil {
			t.Fatal(err)
		}
		rep, err := ref.RunContext(context.Background(), accepted)
		if err != nil {
			t.Fatal(err)
		}
		referenceApply(refReg, rep, vnow, false)
		compare(tick, rep, vnow)
	}

	final, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ref.RunContext(context.Background(), accepted)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(final.Grid, rep) {
		t.Fatal("the drain report differs from the offline replay of the accepted stream")
	}
	if rep.Metrics.Killed == 0 || rep.Metrics.Migrated == 0 {
		t.Fatalf("the stream saw %d kills and %d migrations; the faults are vacuous", rep.Metrics.Killed, rep.Metrics.Migrated)
	}
	referenceApply(refReg, rep, final.VirtualNow, true)
	compare(-1, rep, math.Inf(1))

	batches := 0
	for _, crep := range rep.Clusters {
		batches += len(crep.Batches)
	}
	if wins := counterSum(t, s.obs, "bicrit_portfolio_wins_total"); wins != float64(batches) {
		t.Fatalf("bicrit_portfolio_wins_total sums to %g, the report has %d batches", wins, batches)
	}
	if fed := counterSum(t, s.obs, "bicrit_serve_refresh_fed_jobs_total"); fed != float64(len(accepted)) {
		t.Fatalf("refreshes fed %g jobs, %d were accepted", fed, len(accepted))
	}
}

// TestAdmissionDuringCaptureJoinsNextRefresh pins the capture's prefix
// rule. Job A is admitted before a refresh reads the virtual clock; job B
// is submitted right after the read, while the capture still holds the
// admission lock. The refresh must take A and not B, which is released at
// or after the capture's time; the next refresh must take B, and the
// drain must equal the offline replay of both.
func TestAdmissionDuringCaptureJoinsNextRefresh(t *testing.T) {
	// The clock closes read the first time it is read after arming, which
	// here is the refresh's capture of the virtual now.
	var armMu sync.Mutex
	var read chan struct{}
	s, clock := newTestServer(t, func(c *Config) {
		inner := c.Clock
		c.Clock = func() time.Time {
			armMu.Lock()
			if read != nil {
				close(read)
				read = nil
			}
			armMu.Unlock()
			return inner()
		}
	})

	accA, err := s.Submit(seqTask(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	clock.advance(10 * time.Second)
	armMu.Lock()
	read = make(chan struct{})
	captured := read
	armMu.Unlock()
	done := make(chan error)
	go func() { done <- s.refresh() }()
	<-captured
	accB, err := s.Submit(seqTask(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if s.streamFed != 1 {
		t.Fatalf("the refresh took %d jobs, want only the one admitted before its clock read", s.streamFed)
	}
	if err := s.refresh(); err != nil {
		t.Fatalf("the refresh after the later admission: %v", err)
	}
	if s.streamFed != 2 {
		t.Fatalf("the next refresh left the stream fed to %d jobs, want 2", s.streamFed)
	}
	final, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := grid.New(gridConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.RunContext(context.Background(), []cluster.Job{
		{Task: seqTask(0, 3), Release: accA.Release},
		{Task: seqTask(1, 3), Release: accB.Release},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(final.Grid, want) {
		t.Fatal("the drain report differs from the offline replay of both jobs")
	}
}

// streamLen returns the length of the accepted stream.
func (s *Server) streamLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.stream)
}

// counterSum adds up every series of a counter family in a scrape.
func counterSum(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	families, err := obs.ParseText(strings.NewReader(text.String()))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, f := range families {
		if f.Name != name {
			continue
		}
		for _, row := range f.Rows {
			sum += row.Value
		}
	}
	return sum
}

// TestRestoreRejectsBadVirtualClock is the regression test of a snapshot
// whose clock would make the pacer stamp negative (or meaningless)
// releases: every refresh and the drain would then fail.
func TestRestoreRejectsBadVirtualClock(t *testing.T) {
	for _, clock := range []string{"-100", "-1e-9", "1e400"} {
		path := filepath.Join(t.TempDir(), "snapshot.json")
		body := `{"version": 1, "virtual_now": ` + clock + `, "counters": {}, "jobs": []}`
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := NewServer(Config{Grid: gridConfig(), RefreshInterval: -1, SnapshotInterval: -1, SnapshotPath: path})
		var verr *validate.Error
		if clock == "1e400" {
			// encoding/json refuses the overflow itself.
			if err == nil {
				t.Errorf("virtual_now %s accepted", clock)
			}
			continue
		}
		if !errors.As(err, &verr) || verr.Field != "snapshot.virtual_now" {
			t.Errorf("virtual_now %s: got %v, want a snapshot.virtual_now field error", clock, err)
		}
	}
}

// TestRestoreRejectsNegativeCounters is the regression test of a
// hand-edited snapshot with a negative rejection counter: GET /metrics
// would serve it and keep counting up from below zero, while
// /metrics.prom, whose counters never decrease, would show 0.
func TestRestoreRejectsNegativeCounters(t *testing.T) {
	for _, field := range []string{"rejected_rate_limit", "rejected_backlog"} {
		path := filepath.Join(t.TempDir(), "snapshot.json")
		body := `{"version": 1, "virtual_now": 5, "counters": {"` + field + `": -3}, "jobs": []}`
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := NewServer(Config{Grid: gridConfig(), RefreshInterval: -1, SnapshotInterval: -1, SnapshotPath: path})
		var verr *validate.Error
		if !errors.As(err, &verr) || verr.Field != "snapshot.counters."+field {
			t.Errorf("negative %s: got %v, want a snapshot.counters.%s field error", field, err, field)
		}
	}
}
