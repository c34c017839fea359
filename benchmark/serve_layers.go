package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"bicriteria/internal/cluster"
	"bicriteria/internal/flight"
	"bicriteria/internal/grid"
	"bicriteria/internal/scenario"
	"bicriteria/internal/serve"
	"bicriteria/internal/workload"
)

// stepClock is the wall clock the probe servers run on: the harness sets
// it before every submission so that the service stamps the release the
// live run's reply carried, and the probe servers replay the very stream
// the open loop produced.
type stepClock struct {
	mu   sync.Mutex
	base time.Time
	t    time.Time
}

func newStepClock() *stepClock {
	base := time.Unix(1_700_000_000, 0)
	return &stepClock{base: base, t: base}
}

func (c *stepClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// setVirtual moves the clock to the wall instant of a virtual time.
func (c *stepClock) setVirtual(v, speedup float64) {
	c.mu.Lock()
	c.t = c.base.Add(time.Duration(v / speedup * float64(time.Second)))
	c.mu.Unlock()
}

// probeServer builds a service like the live one but with the periodic
// refresher and snapshot writer off and the clock under the harness's
// control: every cost is then paid by the call the harness times.
func probeServer(spec scenario.Scenario, snapshotPath string) (*serve.Server, *stepClock, error) {
	cfg, err := scenario.ServeConfig(spec)
	if err != nil {
		return nil, nil, err
	}
	clk := newStepClock()
	cfg.Clock = clk.now
	cfg.RefreshInterval = -1
	cfg.SnapshotInterval = -1
	cfg.SnapshotPath = snapshotPath
	srv, err := serve.NewServer(cfg)
	return srv, clk, err
}

// serveLayers is the traced part of serve-stream: direct calls on fresh
// servers over the stream the open loop produced.
func serveLayers(ctx context.Context, cfg runConfig, tr *tracer, sz serveSizes, in *serveInputs, stream []workload.Arrival, o *outcome) error {
	n := float64(len(stream))
	// load submits the stream to a server in release order and returns
	// the milliseconds of every chunk with a span around it and of every
	// chunk without. One span per hundred submissions: a Submit takes
	// a microsecond or two, a span around each would cost as much as the
	// call. With alternate, every other chunk goes untraced, so the two
	// sets see the same machine.
	const chunk = 100
	load := func(t *tracer, alternate bool, srv *serve.Server, clk *stepClock) (tracedMs, plainMs []float64) {
		for lo, c := 0, 0; lo < len(stream); lo, c = lo+chunk, c+1 {
			ct := t
			if alternate && c%2 == 1 {
				ct = nil
			}
			t0 := wall.Now()
			id := ct.begin("serve.submit")
			for i := lo; i < lo+chunk && i < len(stream); i++ {
				clk.setVirtual(stream[i].Submit, sz.speedup)
				if _, err := srv.Submit(stream[i].Task); err != nil {
					o.fail(1, "Submit of job %d: %v", stream[i].Task.ID, err)
				}
			}
			ct.end(id)
			if ct != nil {
				tracedMs = append(tracedMs, since(t0))
			} else {
				plainMs = append(plainMs, since(t0))
			}
		}
		return tracedMs, plainMs
	}
	drain := func(t *tracer, srv *serve.Server, name string) float64 {
		t0 := wall.Now()
		id := t.begin(name)
		_, err := srv.Drain()
		t.end(id)
		if err != nil {
			o.fail(1, "Drain: %v", err)
		}
		return since(t0)
	}
	tr.setRep(0)

	// Server A: Submit (every other chunk traced), Status per job, a drain.
	a, clkA, err := probeServer(in.spec, "")
	if err != nil {
		return err
	}
	o.attempted += len(stream)
	tracedLoad, plainLoad := load(tr, true, a, clkA)
	o.set("serve.submit_us", (sum(tracedLoad)+sum(plainLoad))*1e3/n)
	// Medians of the chunk times: a collection or a neighbour landing in one
	// chunk must not decide the cost of a span.
	if len(plainLoad) > 0 {
		o.set("trace.overhead_share", median(tracedLoad)/median(plainLoad)-1)
	}
	o.samples["trace.traced_ms"], o.samples["trace.plain_ms"] = tracedLoad, plainLoad
	id := tr.begin("serve.status")
	for i := range stream {
		if _, ok := a.Status(stream[i].Task.ID); !ok {
			o.fail(1, "Status of job %d: unknown", stream[i].Task.ID)
		}
	}
	tr.end(id)
	o.set("serve.status_us", tr.total("serve.status")*1e3/n)
	drains := []float64{drain(tr, a, "serve.drain")}

	// Server B: a second drain sample.
	b, clkB, err := probeServer(in.spec, "")
	if err != nil {
		return err
	}
	load(nil, false, b, clkB)
	drains = append(drains, drain(tr, b, "serve.drain"))

	// Server C: the same stream through the HTTP handler, bulk by bulk.
	c, clkC, err := probeServer(in.spec, "")
	if err != nil {
		return err
	}
	handler := c.Handler()
	releases := make(map[int]float64, len(stream))
	for i := range stream {
		releases[stream[i].Task.ID] = stream[i].Submit
	}
	id = tr.begin("serve.http_submit")
	for r, body := range in.bodies {
		clkC.setVirtual(releases[in.tasks[r*sz.bulk].ID], sz.speedup)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		if rec.Code != http.StatusAccepted {
			o.fail(1, "handler POST /jobs %d answered %d", r, rec.Code)
		}
	}
	tr.end(id)
	o.set("serve.http_submit_us_per_job", tr.total("serve.http_submit")*1e3/float64(len(in.tasks)))
	drains = append(drains, drain(tr, c, "serve.drain"))
	o.set("serve.drain_ms", median(drains))

	// Server D drains into a snapshot; server E restores from it.
	snapshot := filepath.Join(cfg.outDir, "serve-stream-probe-snapshot.json")
	if err := os.Remove(snapshot); err != nil && !os.IsNotExist(err) {
		return err
	}
	defer os.Remove(snapshot)
	d, clkD, err := probeServer(in.spec, snapshot)
	if err != nil {
		return err
	}
	load(nil, false, d, clkD)
	o.set("serve.snapshot_ms", drain(tr, d, "serve.drain_snapshot")-median(drains))
	if st, err := os.Stat(snapshot); err != nil {
		o.fail(1, "snapshot: %v", err)
	} else {
		o.set("serve.snapshot_bytes", float64(st.Size()))
	}
	id = tr.begin("serve.restore")
	e, _, err := probeServer(in.spec, snapshot)
	tr.end(id)
	if err != nil {
		return err
	}
	o.set("serve.restore_ms", tr.total("serve.restore"))
	if e.Jobs() != len(stream) {
		o.fail(1, "restored %d of %d jobs", e.Jobs(), len(stream))
	}
	drain(nil, e, "")

	// The read handlers of drained server A, every job finished.
	get := func(h http.Handler, path string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			o.fail(1, "handler GET %s answered %d", path, rec.Code)
		}
	}
	ha := a.Handler()
	for rep := 0; rep < 5; rep++ {
		tr.setRep(rep)
		id = tr.begin("serve.prom_scrape")
		get(ha, "/metrics.prom")
		tr.end(id)
		id = tr.begin("serve.metrics_json")
		get(ha, "/metrics")
		tr.end(id)
	}
	tr.setRep(0)
	o.set("serve.prom_scrape_ms", tr.total("serve.prom_scrape"))
	o.set("serve.metrics_json_ms", tr.total("serve.metrics_json"))
	timelines := 0
	id = tr.begin("serve.timeline")
	for i := 0; i < len(stream); i += sz.trackEvery {
		get(ha, "/jobs/"+strconv.Itoa(stream[i].Task.ID)+"/timeline")
		timelines++
	}
	tr.end(id)
	o.set("serve.timeline_us", tr.total("serve.timeline")*1e3/float64(timelines))

	// What one refresh does at three stream sizes: the federation replay of
	// the first N accepted jobs plus the flight recorder rebuilt from it.
	for _, size := range []int{1000, 3000, 6000} {
		if size > len(stream) {
			continue
		}
		scfg, err := scenario.ServeConfig(in.spec)
		if err != nil {
			return err
		}
		fed, err := grid.New(scfg.Grid)
		if err != nil {
			return err
		}
		name := "serve.refresh_proxy.n" + strconv.Itoa(size)
		id = tr.begin(name)
		rep, err := fed.RunContext(ctx, cluster.JobsFromArrivals(stream[:size]))
		if err == nil {
			flight.FromGridReport(rep)
		}
		tr.end(id)
		if err != nil {
			return err
		}
		o.set("serve.refresh_proxy_ms.n"+strconv.Itoa(size), tr.total(name))
	}
	return nil
}
