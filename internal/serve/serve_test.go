package serve

import (
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"bicriteria/internal/cluster"
	"bicriteria/internal/grid"
	"bicriteria/internal/moldable"
)

// fakeClock is a manually advanced wall clock shared with a server.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// gridConfig is a small deterministic two-shard federation.
func gridConfig() grid.Config {
	return grid.Config{
		Clusters: []grid.ClusterSpec{{M: 8}, {M: 4}},
		Routing:  grid.LeastBacklog(),
	}
}

// newTestServer builds a server with periodic loops disabled so the tests
// drive refreshes and snapshots explicitly.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *fakeClock) {
	t.Helper()
	clock := newFakeClock()
	cfg := Config{
		Grid:             gridConfig(),
		Speedup:          1,
		RefreshInterval:  -1,
		SnapshotInterval: -1,
		Clock:            clock.now,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, clock
}

func TestPacerMapsWallOntoVirtualTime(t *testing.T) {
	clock := newFakeClock()
	p := newPacer(clock.now, 10, 5)
	if got := p.now(); got != 5 {
		t.Fatalf("virtual time at start = %g, want the offset 5", got)
	}
	clock.advance(2 * time.Second)
	if got := p.now(); math.Abs(got-25) > 1e-9 {
		t.Fatalf("virtual time after 2s at speedup 10 = %g, want 25", got)
	}
	if d := p.realDuration(20); d != 2*time.Second {
		t.Fatalf("realDuration(20) = %s, want 2s", d)
	}
}

func TestTokenBucketRefillsAtRate(t *testing.T) {
	start := time.Unix(0, 0)
	b := newTokenBucket(2, 1, start) // 2 tokens/s, capacity 1
	if ok, _ := b.take(start); !ok {
		t.Fatal("first take from a full bucket failed")
	}
	ok, wait := b.take(start)
	if ok {
		t.Fatal("empty bucket handed out a token")
	}
	if wait <= 0 || wait > 500*time.Millisecond {
		t.Fatalf("wait = %s, want (0, 500ms]", wait)
	}
	if ok, _ := b.take(start.Add(600 * time.Millisecond)); !ok {
		t.Fatal("bucket did not refill after the advertised wait")
	}
}

func seqTask(id int, duration float64) moldable.Task {
	return moldable.Sequential(id, 1, duration)
}

func TestSubmitStampsMonotoneReleases(t *testing.T) {
	s, clock := newTestServer(t, func(c *Config) { c.Speedup = 100 })
	defer s.Drain()
	var last float64 = -1
	for i := 0; i < 5; i++ {
		acc, err := s.Submit(seqTask(i, 10))
		if err != nil {
			t.Fatal(err)
		}
		if acc.Release < last {
			t.Fatalf("release %g went backwards (previous %g)", acc.Release, last)
		}
		last = acc.Release
		clock.advance(50 * time.Millisecond) // 5 virtual units at speedup 100
	}
	if last < 4*5-1e-9 {
		t.Fatalf("last release %g, want about 20 (4 advances of 5 virtual units)", last)
	}
}

func TestSubmitRejectsDuplicates(t *testing.T) {
	s, _ := newTestServer(t, nil)
	defer s.Drain()
	if _, err := s.Submit(seqTask(7, 3)); err != nil {
		t.Fatal(err)
	}
	_, err := s.Submit(seqTask(7, 4))
	var dup *DuplicateError
	if !errors.As(err, &dup) || dup.ID != 7 {
		t.Fatalf("resubmitting ID 7 gave %v, want a DuplicateError", err)
	}
}

func TestSubmitRateLimit(t *testing.T) {
	s, clock := newTestServer(t, func(c *Config) {
		c.SubmitRate = 1
		c.SubmitBurst = 1
	})
	defer s.Drain()
	if _, err := s.Submit(seqTask(0, 5)); err != nil {
		t.Fatal(err)
	}
	_, err := s.Submit(seqTask(1, 5))
	var rej *Rejection
	if !errors.As(err, &rej) || rej.Reason != "rate-limit" {
		t.Fatalf("second submit gave %v, want a rate-limit rejection", err)
	}
	if rej.RetryAfter <= 0 || rej.RetryAfter > time.Second {
		t.Fatalf("retry-after %s, want (0, 1s]", rej.RetryAfter)
	}
	if got := s.CountersSnapshot().RejectedRate; got != 1 {
		t.Fatalf("rejected_rate counter = %d, want 1", got)
	}
	clock.advance(rej.RetryAfter + time.Millisecond)
	if _, err := s.Submit(seqTask(1, 5)); err != nil {
		t.Fatalf("submit after the advertised back-off still failed: %v", err)
	}
}

func TestSubmitBacklogAdmissionControl(t *testing.T) {
	// Total 12 processors; a sequential job of duration 120 charges the
	// virtual backlog clock 10 units. Limit 15: the second job trips it.
	s, clock := newTestServer(t, func(c *Config) { c.AdmitBacklog = 15 })
	defer s.Drain()
	if _, err := s.Submit(seqTask(0, 120)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(seqTask(1, 120)); err != nil {
		t.Fatal(err) // backlog 10 <= 15, still open
	}
	_, err := s.Submit(seqTask(2, 120))
	var rej *Rejection
	if !errors.As(err, &rej) || rej.Reason != "backlog" {
		t.Fatalf("saturated submit gave %v, want a backlog rejection", err)
	}
	if rej.RetryAfter <= 0 {
		t.Fatalf("backlog rejection came without a back-off hint")
	}
	// The virtual backlog drains in real time: after the hinted wait the
	// front door reopens.
	clock.advance(rej.RetryAfter + time.Second)
	if _, err := s.Submit(seqTask(2, 120)); err != nil {
		t.Fatalf("submit after backlog drained still failed: %v", err)
	}
	if got := s.CountersSnapshot().RejectedBacklog; got != 1 {
		t.Fatalf("rejected_backlog counter = %d, want 1", got)
	}
}

func TestRefreshWalksJobLifecycle(t *testing.T) {
	s, clock := newTestServer(t, func(c *Config) {
		c.Grid = grid.Config{Clusters: []grid.ClusterSpec{{M: 4}}, Routing: grid.LeastBacklog()}
	})
	defer s.Drain()
	// Two parallel-capable sequential jobs at virtual time 0: the batcher
	// fires immediately, both run on [0, 10].
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(seqTask(i, 10)); err != nil {
			t.Fatal(err)
		}
	}
	clock.advance(time.Second) // vnow = 1: batch fired at 0, jobs running
	if err := s.refresh(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		st, ok := s.Status(i)
		if !ok {
			t.Fatalf("job %d unknown", i)
		}
		if st.State != StateRunning {
			t.Fatalf("job %d at vnow 1: state %s, want running", i, st.State)
		}
		if st.Cluster != 0 || st.Batch != 0 {
			t.Fatalf("job %d routing not recorded: %+v", i, st)
		}
	}
	clock.advance(15 * time.Second) // vnow = 16: both completed at 10
	if err := s.refresh(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		st, _ := s.Status(i)
		if st.State != StateDone {
			t.Fatalf("job %d at vnow 16: state %s, want done", i, st.State)
		}
		if math.Abs(st.Stretch-1) > 1e-9 || math.Abs(st.End-10) > 1e-9 {
			t.Fatalf("job %d finished with stretch %g end %g, want 1 and 10", i, st.Stretch, st.End)
		}
	}
	counts := s.reg.stateCounts()
	if counts["done"] != 2 {
		t.Fatalf("state counts %v, want 2 done", counts)
	}
}

func TestRefreshNeverFinalizesTheMargin(t *testing.T) {
	s, _ := newTestServer(t, nil)
	defer s.Drain()
	// A job submitted at exactly the refresh's virtual time: the batch
	// fires at vnow, inside the eps margin, so nothing may be finalized.
	if _, err := s.Submit(seqTask(0, 10)); err != nil {
		t.Fatal(err)
	}
	if err := s.refresh(); err != nil {
		t.Fatal(err)
	}
	st, _ := s.Status(0)
	if st.State != StateQueued {
		t.Fatalf("margin batch was finalized: state %s, want queued", st.State)
	}
}

func TestDrainMatchesOfflineReplay(t *testing.T) {
	cfg := gridConfig()
	s, clock := newTestServer(t, func(c *Config) {
		c.Grid = cfg
		c.Speedup = 50
	})
	var jobs []cluster.Job
	for i := 0; i < 40; i++ {
		task := moldable.PerfectlyMoldable(i, 1+float64(i%3), 20+float64(i%7), 1+i%6)
		acc, err := s.Submit(task)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, cluster.Job{Task: task, Release: acc.Release})
		clock.advance(time.Duration(i%5) * 100 * time.Millisecond)
	}
	rep, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != len(jobs) {
		t.Fatalf("drained %d jobs, want %d", rep.Jobs, len(jobs))
	}
	offline, err := grid.New(gridConfig())
	if err != nil {
		t.Fatal(err)
	}
	offRep, err := offline.RunContext(t.Context(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Metrics, offRep.Metrics) {
		t.Fatalf("drained metrics differ from the offline replay:\nserve   %+v\noffline %+v", rep.Metrics, offRep.Metrics)
	}
	if !reflect.DeepEqual(rep.Grid.Decisions, offRep.Decisions) {
		t.Fatal("drained routing decisions differ from the offline replay")
	}
	// Every job is final after the drain.
	for _, j := range jobs {
		st, _ := s.Status(j.Task.ID)
		if st.State != StateDone {
			t.Fatalf("job %d not done after drain: %s", j.Task.ID, st.State)
		}
	}
	// Drain is idempotent and closes the front door.
	again, err := s.Drain()
	if err != nil || again != rep {
		t.Fatalf("second drain returned (%p, %v), want the same report", again, err)
	}
	_, err = s.Submit(seqTask(999, 1))
	var rej *Rejection
	if !errors.As(err, &rej) || rej.Reason != "draining" {
		t.Fatalf("submit after drain gave %v, want a draining rejection", err)
	}
}

func TestSnapshotRestoreResumesService(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snapshot.json")
	cfgFor := func(clock *fakeClock) Config {
		return Config{
			Grid:             gridConfig(),
			Speedup:          20,
			RefreshInterval:  -1,
			SnapshotInterval: -1,
			SnapshotPath:     path,
			Clock:            clock.now,
		}
	}

	clockA := newFakeClock()
	a, err := NewServer(cfgFor(clockA))
	if err != nil {
		t.Fatal(err)
	}
	var jobs []cluster.Job
	for i := 0; i < 10; i++ {
		task := seqTask(i, 5+float64(i))
		acc, err := a.Submit(task)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, cluster.Job{Task: task, Release: acc.Release})
		clockA.advance(200 * time.Millisecond)
	}
	vnowA := a.now()
	if err := a.writeSnapshot(); err != nil {
		t.Fatal(err)
	}
	// The first process dies here (no drain). A new one restores.
	clockB := newFakeClock()
	b, err := NewServer(cfgFor(clockB))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Jobs(); got != 10 {
		t.Fatalf("restored server knows %d jobs, want 10", got)
	}
	if got := b.CountersSnapshot(); got.Submitted != 10 || got.Restored != 10 {
		t.Fatalf("restored counters %+v, want 10 submitted / 10 restored", got)
	}
	if now := b.now(); math.Abs(now-vnowA) > 1e-9 {
		t.Fatalf("restored virtual clock %g, want to resume from %g", now, vnowA)
	}
	// New submissions continue after the restored history.
	task := seqTask(100, 3)
	acc, err := b.Submit(task)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Release < vnowA {
		t.Fatalf("post-restore release %g rewound before %g", acc.Release, vnowA)
	}
	jobs = append(jobs, cluster.Job{Task: task, Release: acc.Release})

	rep, err := b.Drain()
	if err != nil {
		t.Fatal(err)
	}
	offline, err := grid.New(gridConfig())
	if err != nil {
		t.Fatal(err)
	}
	offRep, err := offline.RunContext(t.Context(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Metrics, offRep.Metrics) {
		t.Fatalf("restored drain differs from the offline replay:\nserve   %+v\noffline %+v", rep.Metrics, offRep.Metrics)
	}
}

func TestNewServerValidatesConfig(t *testing.T) {
	bad := []Config{
		{Grid: gridConfig(), Speedup: -1},
		{Grid: gridConfig(), Speedup: math.NaN()},
		{Grid: gridConfig(), SubmitRate: -2},
		{Grid: gridConfig(), AdmitBacklog: math.Inf(1)},
		{Grid: grid.Config{}}, // no clusters
	}
	for i, cfg := range bad {
		if _, err := NewServer(cfg); err == nil {
			t.Errorf("config %d accepted, want an error", i)
		}
	}
}
