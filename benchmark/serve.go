package main

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime/metrics"
	"strconv"
	"sync"
	"syscall"
	"time"

	"bicriteria/internal/cluster"
	"bicriteria/internal/grid"
	"bicriteria/internal/moldable"
	"bicriteria/internal/scenario"
	"bicriteria/internal/serve"
	"bicriteria/internal/workload"
)

// serveSizes freezes the live-service workload: the federation, the
// pacing of the service and the open-loop schedule of the load generator.
type serveSizes struct {
	clusters        []int
	speedup         float64
	refreshSeconds  float64
	snapshotSeconds float64
	queueDepth      int
	// bulk jobs go into every POST /jobs; one POST is due every period.
	// 10 jobs every 33.3 ms are 300 jobs/s offered.
	bulk   int
	period time.Duration
	// Every trackEvery-th job is followed until it shows as done: polled
	// every pollUnknown while its end is unknown, then every pollDue from
	// the wall instant its virtual end passes.
	trackEvery  int
	pollUnknown time.Duration
	pollDue     time.Duration
	// GET /metrics.prom is due every promEvery.
	promEvery time.Duration
}

func serveStreamSizes() serveSizes {
	return serveSizes{
		clusters: []int{64, 32, 32, 16}, speedup: 50, refreshSeconds: 0.25, snapshotSeconds: 2, queueDepth: 4096,
		bulk: 10, period: time.Second / 30, trackEvery: 25,
		pollUnknown: 50 * time.Millisecond, pollDue: 20 * time.Millisecond, promEvery: time.Second,
	}
}

// requests returns how many POSTs fit the measured window.
func (sz serveSizes) requests(seconds float64) int {
	n := int(seconds / sz.period.Seconds())
	if n < 3 {
		n = 3
	}
	return n
}

// scenario builds the service's scenario spec.
func (sz serveSizes) scenario(seed int64, snapshotPath string) (scenario.Scenario, error) {
	return scenario.New(
		scenario.WithName("serve-stream"),
		scenario.WithSeed(seed),
		scenario.WithTopology(scenario.TopologyGrid),
		scenario.WithClusters(sz.clusters...),
		// A service scenario must describe a generated stream to validate;
		// the jobs themselves arrive over HTTP.
		scenario.WithWorkload("mixed", 1),
		scenario.WithArrivals(1, 0),
		scenario.WithRouting("least-backlog", 0),
		scenario.WithService(scenario.Service{
			Speedup:         sz.speedup,
			RefreshSeconds:  sz.refreshSeconds,
			SnapshotPath:    snapshotPath,
			SnapshotSeconds: sz.snapshotSeconds,
			QueueDepth:      sz.queueDepth,
		}),
	)
}

// jobSpec is the client's wire form of a submission.
type jobSpec struct {
	ID     int       `json:"id"`
	Weight float64   `json:"weight"`
	Times  []float64 `json:"times"`
}

// Client-side views of the service's responses: only the fields the load
// generator reads.
type submitReply struct {
	Accepted []acceptedJob `json:"accepted"`
	Error    string        `json:"error"`
}

type acceptedJob struct {
	ID      int     `json:"id"`
	Release float64 `json:"release"`
}

type statusReply struct {
	State   string  `json:"state"`
	Release float64 `json:"release"`
	End     float64 `json:"end"`
}

type drainReply struct {
	Jobs    int          `json:"jobs"`
	Metrics grid.Metrics `json:"metrics"`
}

// liveService is a running server behind a loopback listener: what
// `bicrit serve` starts.
type liveService struct {
	srv      *serve.Server
	http     *http.Server
	base     string
	serveErr chan error
	// writer and reader are the two client connections of the load
	// generator: submissions on one, every read on the other.
	writer, reader *http.Client
}

func oneConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

func startService(cfg serve.Config) (*liveService, error) {
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_, _ = srv.Drain() // stop the loops of the half-built service; the listen error is the one to report
		return nil, err
	}
	ls := &liveService{
		srv:      srv,
		http:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base:     "http://" + ln.Addr().String(),
		serveErr: make(chan error, 1),
		writer:   oneConnClient(),
		reader:   oneConnClient(),
	}
	go func() { ls.serveErr <- ls.http.Serve(ln) }()
	return ls, nil
}

// stop drains the service (idempotent) and closes the listener, waiting for
// the accept loop to end.
func (ls *liveService) stop(ctx context.Context) error {
	_, derr := ls.srv.Drain()
	ls.writer.CloseIdleConnections()
	ls.reader.CloseIdleConnections()
	serr := ls.http.Shutdown(ctx)
	if err := <-ls.serveErr; err != nil && err != http.ErrServerClosed {
		return err
	}
	if derr != nil {
		return derr
	}
	return serr
}

// call performs one request and reads the whole reply, so the connection
// is reused. out, when non-nil, receives the decoded JSON body.
func call(client *http.Client, method, url string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decoding reply: %w", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

// serveInputs is the product of one set-up: the jobs, their request
// bodies and a live, warmed service.
type serveInputs struct {
	tasks   []moldable.Task
	bodies  [][]byte
	service *liveService
	spec    scenario.Scenario
	// snapshot is the file the service checkpoints to.
	snapshot string
}

// buildServe generates the jobs and their POST bodies from the seed,
// starts the service and warms both client connections.
func buildServe(cfg runConfig, sz serveSizes) (*serveInputs, error) {
	nReq := sz.requests(cfg.seconds)
	inst, err := workload.Generate(workload.Config{
		Kind: workload.Mixed, M: sz.clusters[0], N: nReq * sz.bulk, Seed: subSeeds(cfg.seed, 0x5e77e, 1)[0],
	})
	if err != nil {
		return nil, err
	}
	in := &serveInputs{
		tasks: inst.Tasks, bodies: make([][]byte, nReq),
		snapshot: filepath.Join(cfg.outDir, "serve-stream-snapshot.json"),
	}
	for r := range in.bodies {
		specs := make([]jobSpec, sz.bulk)
		for j := range specs {
			t := &in.tasks[r*sz.bulk+j]
			specs[j] = jobSpec{ID: t.ID, Weight: t.Weight, Times: t.Times}
		}
		if in.bodies[r], err = json.Marshal(map[string][]jobSpec{"jobs": specs}); err != nil {
			return nil, err
		}
	}
	// A leftover snapshot would be restored into the new service.
	if err := os.Remove(in.snapshot); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	if in.spec, err = sz.scenario(cfg.seed, in.snapshot); err != nil {
		return nil, err
	}
	scfg, err := scenario.ServeConfig(in.spec)
	if err != nil {
		return nil, err
	}
	if in.service, err = startService(scfg); err != nil {
		return nil, err
	}
	for _, c := range []*http.Client{in.service.writer, in.service.reader} {
		for _, path := range []string{"/healthz", "/metrics.prom"} {
			if code, err := call(c, http.MethodGet, in.service.base+path, nil, nil); err != nil || code != http.StatusOK {
				return nil, fmt.Errorf("warm-up GET %s: status %d: %v", path, code, err)
			}
		}
	}
	return in, nil
}

// submitSample is one POST /jobs of the open loop.
type submitSample struct {
	lateMs, latencyMs float64
	status            int
}

// tracked is one job the reader follows until it shows as done.
type tracked struct {
	id      int
	release float64
	// due is when the job's POST was due, sent when it actually left.
	due, sent time.Time
	// endWall is the wall instant the job's virtual end passes, known once
	// a status reply carried the end.
	endWall  time.Time
	endKnown bool
	doneSeen time.Time
}

// read is one GET the reader owes, due at a wall instant.
type read struct {
	due  time.Time
	kind int
	job  *tracked
}

const (
	readStatus = iota
	readTimeline
	readProm
)

// readQueue orders the owed reads by due instant.
type readQueue []read

func (q readQueue) Len() int           { return len(q) }
func (q readQueue) Less(a, b int) bool { return q[a].due.Before(q[b].due) }
func (q readQueue) Swap(a, b int)      { q[a], q[b] = q[b], q[a] }
func (q *readQueue) Push(x any)        { *q = append(*q, x.(read)) }
func (q *readQueue) Pop() any {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// openLoop is the state of one measured window.
type openLoop struct {
	sz      serveSizes
	in      *serveInputs
	start   time.Time
	stopAt  time.Time
	submits []submitSample
	// accepted maps job ID to the release the service stamped.
	accepted map[int]float64
	readMs   []float64
	readFail int
	reads    int
	tracked  []*tracked
	// The submitter and the reader each keep their own list of failures;
	// they run concurrently.
	submitProblems []string
	readProblems   []string
}

// flowWall is the wall duration of a virtual span at the service's speedup.
func (ol *openLoop) flowWall(virtual float64) time.Duration {
	return time.Duration(virtual / ol.sz.speedup * float64(time.Second))
}

// submitter is the write connection: one bulk POST per period, due on the
// pacer's schedule whatever the replies do.
func (ol *openLoop) submitter(follow chan<- *tracked) {
	defer close(follow)
	p := newPacer(wall, ol.start, ol.sz.period, len(ol.in.bodies))
	for {
		i, due, ok := p.next()
		if !ok {
			return
		}
		sent := wall.Now()
		var reply submitReply
		code, err := call(ol.in.service.writer, http.MethodPost, ol.in.service.base+"/jobs", ol.in.bodies[i], &reply)
		s := submitSample{lateMs: p.lateMs[i], latencyMs: since(due), status: code}
		if err != nil {
			s.status = 0
			ol.submitProblems = append(ol.submitProblems, fmt.Sprintf("POST /jobs %d: %v", i, err))
		}
		ol.submits = append(ol.submits, s)
		for _, a := range reply.Accepted {
			ol.accepted[a.ID] = a.Release
			if a.ID%ol.sz.trackEvery == 0 {
				follow <- &tracked{id: a.ID, release: a.Release, due: due, sent: sent}
			}
		}
	}
}

// reader is the read connection: status polls of the tracked jobs, one
// timeline per newly done job and the periodic scrape, each timed from the
// instant it was due.
func (ol *openLoop) reader(follow <-chan *tracked) {
	var q readQueue
	heap.Push(&q, read{due: ol.start, kind: readProm})
	base, client := ol.in.service.base, ol.in.service.reader
	for {
		// Take over the jobs the submitter has handed on since last time.
	drained:
		for {
			select {
			case t, ok := <-follow:
				if !ok {
					follow = nil
					break drained
				}
				ol.tracked = append(ol.tracked, t)
				heap.Push(&q, read{due: wall.Now(), kind: readStatus, job: t})
			default:
				break drained
			}
		}
		now := wall.Now()
		if !now.Before(ol.stopAt) {
			return
		}
		// Sleep to the next due read, but wake often enough to notice new
		// tracked jobs and the end of the window.
		wake := now.Add(5 * time.Millisecond)
		if q.Len() > 0 && q[0].due.Before(wake) {
			wake = q[0].due
		}
		if wake.After(ol.stopAt) {
			wake = ol.stopAt
		}
		if wake.After(now) {
			wall.SleepUntil(wake)
			continue
		}
		r := heap.Pop(&q).(read)
		ol.reads++
		var code int
		var err error
		switch r.kind {
		case readProm:
			code, err = call(client, http.MethodGet, base+"/metrics.prom", nil, nil)
			heap.Push(&q, read{due: r.due.Add(ol.sz.promEvery), kind: readProm})
		case readTimeline:
			code, err = call(client, http.MethodGet, base+"/jobs/"+strconv.Itoa(r.job.id)+"/timeline", nil, nil)
		case readStatus:
			var st statusReply
			code, err = call(client, http.MethodGet, base+"/jobs/"+strconv.Itoa(r.job.id), nil, &st)
			if err == nil && code == http.StatusOK {
				ol.follow(&q, r, st)
			}
		}
		ol.readMs = append(ol.readMs, since(r.due))
		if err != nil || code != http.StatusOK {
			ol.readFail++
			ol.readProblems = append(ol.readProblems, fmt.Sprintf("read kind %d: status %d: %v", r.kind, code, err))
		}
	}
}

// follow advances a tracked job after a status reply and queues its next
// read.
func (ol *openLoop) follow(q *readQueue, r read, st statusReply) {
	t := r.job
	if st.End > 0 && !t.endKnown {
		t.endKnown = true
		t.endWall = t.sent.Add(ol.flowWall(st.End - t.release))
	}
	switch {
	case st.State == "done":
		t.doneSeen = wall.Now()
		heap.Push(q, read{due: t.doneSeen, kind: readTimeline, job: t})
	case t.endKnown && t.endWall.After(r.due):
		heap.Push(q, read{due: t.endWall, kind: readStatus, job: t})
	case t.endKnown:
		heap.Push(q, read{due: r.due.Add(ol.sz.pollDue), kind: readStatus, job: t})
	default:
		heap.Push(q, read{due: r.due.Add(ol.sz.pollUnknown), kind: readStatus, job: t})
	}
}

// gcCPUSeconds reads the runtime's GC and total CPU-time estimates.
func gcCPUSeconds() (gc, total float64) {
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		gc = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		total = samples[1].Value.Float64()
	}
	return gc, total
}

// peakRSSMB is the process's high-water resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// acceptedStream is the stream the service accepted: the submitted tasks
// with the releases its replies carried, in release order.
func (ol *openLoop) acceptedStream() []workload.Arrival {
	out := make([]workload.Arrival, 0, len(ol.accepted))
	for i := range ol.in.tasks {
		if rel, ok := ol.accepted[ol.in.tasks[i].ID]; ok {
			out = append(out, workload.Arrival{Task: ol.in.tasks[i], Submit: rel})
		}
	}
	return out
}

// serveStream drives a live service with an open loop of submissions and
// reads, drains it and checks the drain report against the offline replay
// of the accepted stream.
func serveStream(ctx context.Context, cfg runConfig, tr *tracer) (*outcome, error) {
	sz := serveStreamSizes()
	o := newOutcome()
	in, err := timeSetups(cfg, o, func() (*serveInputs, error) { return buildServe(cfg, sz) },
		func(in *serveInputs) error { return in.service.stop(ctx) })
	if err != nil {
		return nil, err
	}
	defer func() {
		if err := in.service.stop(ctx); err != nil {
			o.fail(1, "stopping the service: %v", err)
		}
		os.Remove(in.snapshot)
	}()
	nReq := len(in.bodies)
	o.sizes["requests"] = float64(nReq)
	o.sizes["jobs"] = float64(len(in.tasks))
	o.sizes["offered_jobs_per_s"] = float64(sz.bulk) / sz.period.Seconds()
	o.sizes["processors"] = float64(sumInts(sz.clusters))

	ol := &openLoop{sz: sz, in: in, accepted: map[int]float64{}}
	ol.start = wall.Now().Add(20 * time.Millisecond)
	ol.stopAt = ol.start.Add(time.Duration(nReq) * sz.period)
	follow := make(chan *tracked, len(in.tasks)) // every job could be tracked: the submitter must never block on the reader
	var wg sync.WaitGroup
	wg.Add(2)
	var drained drainReply
	var drainCode int
	var drainErr error
	var drainMs float64
	var end time.Time
	gc0, cpu0 := gcCPUSeconds()
	bytesAlloc, _ := memDelta(func() {
		go func() { defer wg.Done(); ol.submitter(follow) }()
		go func() { defer wg.Done(); ol.reader(follow) }()
		wg.Wait()
		wall.SleepUntil(ol.stopAt)
		t0 := wall.Now()
		drainCode, drainErr = call(in.service.writer, http.MethodPost, in.service.base+"/drain", []byte("{}"), &drained)
		end = wall.Now()
		drainMs = ms(end.Sub(t0))
	})
	gc1, cpu1 := gcCPUSeconds()

	// Operations: every submit, every read, the drain, the final status of
	// every tracked job and the offline check.
	o.attempted = len(ol.submits) + ol.reads + 1
	o.failed += ol.readFail
	o.problems = append(append(o.problems, ol.submitProblems...), ol.readProblems...)
	var latency, late []float64
	refused := 0
	for _, s := range ol.submits {
		latency, late = append(latency, s.latencyMs), append(late, s.lateMs)
		if s.status/100 != 2 {
			o.fail(1, "POST /jobs answered %d", s.status)
		}
		if s.status == http.StatusTooManyRequests {
			refused++
		}
	}
	if drainErr != nil || drainCode != http.StatusOK {
		o.fail(1, "POST /drain: status %d: %v", drainCode, drainErr)
	}
	if len(ol.accepted) != len(in.tasks) {
		o.fail(1, "%d of %d jobs accepted", len(ol.accepted), len(in.tasks))
	}

	// A tracked job the window closed on is asked once more: after the
	// drain everything must be done, and its end tells whether it should
	// have shown as done inside the window.
	var lagMs, resultMs []float64
	for _, t := range ol.tracked {
		if t.doneSeen.IsZero() {
			o.attempted++
			var st statusReply
			code, err := call(in.service.reader, http.MethodGet, in.service.base+"/jobs/"+strconv.Itoa(t.id), nil, &st)
			if err != nil || code != http.StatusOK || st.State != "done" {
				o.fail(1, "job %d after the drain: status %d, state %q: %v", t.id, code, st.State, err)
				continue
			}
			t.endWall = t.sent.Add(ol.flowWall(st.End - t.release))
			t.doneSeen = ol.stopAt
		}
		if t.endWall.After(ol.stopAt) {
			continue // its end passes after the window: no lag to speak of
		}
		lag := ms(t.doneSeen.Sub(t.endWall))
		if lag < 0 {
			lag = 0
		}
		lagMs = append(lagMs, lag)
		resultMs = append(resultMs, lag+ms(t.sent.Sub(t.due)))
	}

	window := end.Sub(ol.start).Seconds()
	o.samples["request_ms"], o.samples["result_ms"] = latency, resultMs
	// The 90th percentile, not the median: the latency of a submit is
	// bimodal (a refresh is replaying the stream, or not), and the median
	// flips with the share of the window refreshes fill, 15–20% between
	// runs; the 90th percentile moved by 5%.
	if v, ok := percentile(latency, 90); ok {
		o.set("request_ms", v)
	} else {
		o.set("request_ms", orZero(median(latency)))
	}
	o.set("result_ms", orZero(median(resultMs)))
	o.set("jobs_per_s", float64(len(ol.accepted))/window)
	o.set("alloc_kb_per_job", float64(bytesAlloc)/1024/float64(len(in.tasks)))

	// The drain report must equal the offline replay of what was accepted.
	stream := ol.acceptedStream()
	offline, err := offlineReplay(ctx, in.spec, stream)
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(drained.Metrics, offline.Metrics) || drained.Jobs != len(stream) {
		o.fail(1, "the drain report differs from the offline replay of the accepted stream")
	}
	c, m, completed, lost := replayQuality(&scenario.Report{Grid: offline}, jobFactsOf(stream))
	if completed != len(stream) || lost != 0 {
		o.fail(1, "%d of %d accepted jobs completed, %d lost", completed, len(stream), lost)
	}
	o.set("cmax_ratio", c)
	o.set("minsum_ratio", m)
	o.set("mean_stretch", offline.Metrics.MeanStretch)

	if !cfg.trace {
		return o, nil
	}
	o.set("serve.submit_ms_p50", orZero(median(latency)))
	if v, ok := percentile(latency, 90); ok {
		o.set("serve.submit_ms_p90", v)
	}
	if v, ok := percentile(latency, 95); ok {
		o.set("serve.submit_ms_p95", v)
	}
	third := len(latency) / 3
	if third > 0 {
		first, last := median(latency[:third]), median(latency[len(latency)-third:])
		o.set("serve.submit_ms_p50.first_third", first)
		o.set("serve.submit_ms_p50.last_third", last)
		o.set("serve.submit_growth", last/first)
	}
	if v, ok := percentile(late, 95); ok {
		o.set("loadgen.late_ms_p95", v)
	}
	o.set("serve.http_429_share", float64(refused)/float64(len(ol.submits)))
	o.set("serve.done_lag_ms_p50", orZero(median(lagMs)))
	if v, ok := percentile(lagMs, 95); ok {
		o.set("serve.done_lag_ms_p95", v)
	}
	o.set("serve.read_ms_p50", orZero(median(ol.readMs)))
	if v, ok := percentile(ol.readMs, 95); ok {
		o.set("serve.read_ms_p95", v)
	}
	o.set("serve.drain_http_ms", drainMs)
	o.set("runtime.peak_rss_mb", peakRSSMB())
	o.set("runtime.alloc_kb_per_job", float64(bytesAlloc)/1024/float64(len(in.tasks)))
	if cpu1 > cpu0 {
		o.set("runtime.gc_cpu_share", (gc1-gc0)/(cpu1-cpu0))
	}
	return o, serveLayers(ctx, cfg, tr, sz, in, stream, o)
}

// offlineReplay runs the accepted stream through a fresh federation built
// from the same scenario: what the drain report must equal.
func offlineReplay(ctx context.Context, spec scenario.Scenario, stream []workload.Arrival) (*grid.Report, error) {
	scfg, err := scenario.ServeConfig(spec)
	if err != nil {
		return nil, err
	}
	fed, err := grid.New(scfg.Grid)
	if err != nil {
		return nil, err
	}
	return fed.RunContext(ctx, cluster.JobsFromArrivals(stream))
}
