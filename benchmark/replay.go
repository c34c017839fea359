package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bicriteria/internal/cluster"
	"bicriteria/internal/flight"
	"bicriteria/internal/grid"
	"bicriteria/internal/lowerbound"
	"bicriteria/internal/moldable"
	"bicriteria/internal/scenario"
	"bicriteria/internal/sim"
	"bicriteria/internal/slo"
	"bicriteria/internal/workload"
)

// replaySizes freezes one replay workload: the machine, the arrival
// process and how many distinct streams a run cycles through.
type replaySizes struct {
	name     string
	clusters []int
	jobs     int
	rate     float64
	burst    int
	noise    float64
	// streams is the number of distinct arrival streams generated from the
	// seed. A run replays them in turn and reports the median over streams
	// of each stream's own value: one stream alone moves the time and the
	// allocation of a replay by 5–15% and its mean stretch by 15–60% from
	// seed to seed (a few congested episodes with large batches decide
	// them), and the median over several is not swung by the odd one out.
	streams int
	// options are the scenario options beyond the stream and the topology.
	options []scenario.Option
}

func clusterSizes(quick bool) replaySizes {
	sz := replaySizes{
		name: "cluster-stream", clusters: []int{64}, jobs: 6000, rate: 4, burst: 6, noise: 0.2, streams: 8,
		options: []scenario.Option{
			// A quarter of the machine reserved for 30 time units early in
			// the stream: batches fired before it ends are placed around it.
			// A long window (the issue's first sizing was [200, 400)) parks
			// a full-width plan until it ends in about half the seeds, and
			// the pile-up behind it then decides every metric of the replay.
			scenario.WithReservation(0, 16, 100, 130),
			scenario.WithBatchPolicy("idle", 0, 0, 0),
			scenario.WithObjective("combined", 0.5),
		},
	}
	if quick {
		sz.jobs, sz.streams = 150, 2
	}
	return sz
}

func gridSizes(quick bool) replaySizes {
	sz := replaySizes{
		name: "grid-stream", clusters: []int{64, 32, 32, 16, 16, 8, 8, 8}, jobs: 8000, rate: 8, burst: 8, noise: 0.2, streams: 8,
		options: []scenario.Option{
			// least-backlog keeps all eight shards busy. The lower-bound
			// policy sends every job of such a stream to the 64-processor
			// shard: its bound grows by minwork/M, least on the largest M,
			// and the cumulative work it compares never drains.
			scenario.WithRouting("least-backlog", 0),
			scenario.WithRacing(scenario.RacingSpec{Cutoff: 2.5, Bandit: true}),
			// ~50 node outages of 10 time units over a replay, a dozen
			// kills, no job lost; the default repair time (MTBF/10) would
			// keep a node down for the rest of the replay.
			scenario.WithFaults(scenario.Faults{MTBF: 20000, Repair: 10, Replan: "checkpoint"}),
		},
	}
	if quick {
		sz.jobs, sz.streams = 200, 2
	}
	return sz
}

// stream is one generated arrival stream and the compiled scenario that
// replays it.
type stream struct {
	arrivals []workload.Arrival
	seed     int64
	// path is the arrival file the scenario replays.
	path string
	// options build the stream's scenario; runner is it compiled the
	// default, concurrent way.
	options []scenario.Option
	runner  scenario.Runner
}

// sequential compiles the stream's scenario with sequential: true: the
// determinism reference, and the replay the traced run nests its spans in.
func (st *stream) sequential() (scenario.Runner, error) {
	scn, err := scenario.New(append(st.options[:len(st.options):len(st.options)], scenario.WithSequential(true))...)
	if err != nil {
		return nil, err
	}
	return scenario.Compile(scn)
}

// jobFacts are the per-job quantities the quality ratios need.
type jobFacts struct{ release, weight, pmin float64 }

func jobFactsOf(arrivals []workload.Arrival) map[int]jobFacts {
	out := make(map[int]jobFacts, len(arrivals))
	for i := range arrivals {
		a := &arrivals[i]
		pmin, _ := a.Task.MinTime()
		out[a.Task.ID] = jobFacts{release: a.Submit, weight: a.Task.Weight, pmin: pmin}
	}
	return out
}

// buildStream is the set-up of one stream: generate it from its seed, save
// it with workload.SaveArrivals and compile the scenario that replays the
// file.
func buildStream(cfg runConfig, sz replaySizes, k int, tr *tracer) (*stream, error) {
	maxM := 0
	for _, m := range sz.clusters {
		if m > maxM {
			maxM = m
		}
	}
	seed := subSeeds(cfg.seed, 0x57ea4, sz.streams)[k]
	arrivals, err := workload.GenerateArrivals(workload.ArrivalConfig{
		Workload:  workload.Config{Kind: workload.Mixed, M: maxM, N: sz.jobs, Seed: seed},
		Rate:      sz.rate,
		BurstSize: sz.burst,
	})
	if err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-arrivals-%d.json", sz.name, k))
	if err := workload.SaveArrivals(path, maxM, arrivals); err != nil {
		return nil, err
	}
	st := &stream{arrivals: arrivals, seed: seed, path: path}
	st.options = append([]scenario.Option{
		scenario.WithName(sz.name),
		scenario.WithSeed(seed),
		scenario.WithClusters(sz.clusters...),
		scenario.WithArrivalFile(path),
		scenario.WithNoise(sz.noise),
	}, sz.options...)
	scn, err := scenario.New(st.options...)
	if err != nil {
		return nil, err
	}
	id := tr.begin("scenario.compile")
	st.runner, err = scenario.Compile(scn)
	tr.end(id)
	return st, err
}

// buildStreams sets up every stream of the run. The first stream's set-up,
// warm-up replay included, is repeated and timed as setup_s; the others are
// set up once (a 15 MB arrival file takes 0.3 s to write and 0.3 s to load,
// so timing all of them three times would cost more than the replays).
func buildStreams(ctx context.Context, cfg runConfig, sz replaySizes, tr *tracer, o *outcome) ([]*stream, error) {
	setup := 0
	first, err := timeSetups(cfg, o, func() (*stream, error) {
		tr.setRep(setup)
		setup++
		st, err := buildStream(cfg, sz, 0, tr)
		if err != nil {
			return nil, err
		}
		if _, err := st.runner.Run(ctx); err != nil {
			return nil, fmt.Errorf("warm-up replay: %w", err)
		}
		return st, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	streams := []*stream{first}
	for k := 1; k < sz.streams; k++ {
		st, err := buildStream(cfg, sz, k, nil)
		if err != nil {
			return nil, err
		}
		streams = append(streams, st)
	}
	return streams, nil
}

// render writes what `bicrit run` prints for a report: the text report,
// and for a grid the JSON export too.
func render(buf *bytes.Buffer, runner scenario.Runner, rep *scenario.Report) error {
	buf.Reset()
	if err := scenario.WriteReport(buf, runner.Info(), rep); err != nil {
		return err
	}
	if rep.Grid != nil {
		return scenario.WriteReportJSON(buf, rep)
	}
	return nil
}

// digest fingerprints everything a replay decided: the rendered report
// plus the full metrics and realized schedules (the single-cluster text
// report is a summary, so the bytes alone would miss a moved job).
func digest(rendered []byte, rep *scenario.Report) ([sha256.Size]byte, error) {
	h := sha256.New()
	h.Write(rendered)
	enc := json.NewEncoder(h)
	if rep.Cluster != nil {
		if err := enc.Encode(rep.Cluster.Metrics); err != nil {
			return [sha256.Size]byte{}, err
		}
		if err := enc.Encode(rep.Cluster.Schedule); err != nil {
			return [sha256.Size]byte{}, err
		}
	}
	if rep.Grid != nil {
		for _, c := range rep.Grid.Clusters {
			if err := enc.Encode(c.Schedule); err != nil {
				return [sha256.Size]byte{}, err
			}
		}
	}
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out, nil
}

// shardReports returns the per-cluster engine reports of either topology.
func shardReports(rep *scenario.Report) []*cluster.Report {
	if rep.Grid != nil {
		return rep.Grid.Clusters
	}
	return []*cluster.Report{rep.Cluster}
}

// replayQuality derives the three quality ratios of one replay.
//
// cmax: planned makespan over the dual-approximation lower bound, summed
// over the committed batches (a ratio of sums: a mean of ratios is swung by
// the occasional one-job batch parked behind a reservation).
// minsum: weighted flow time over the bound no schedule can beat, each job
// running alone at its fastest from the instant it arrives.
func replayQuality(rep *scenario.Report, facts map[int]jobFacts) (cmax, minsum float64, completed, lost int) {
	planned, bound, flow, ideal := 0.0, 0.0, 0.0, 0.0
	for _, c := range shardReports(rep) {
		for i := range c.Batches {
			planned += c.Batches[i].PlannedMakespan
			bound += c.Batches[i].LowerBound
		}
		for _, a := range c.Schedule.Assignments {
			f := facts[a.TaskID]
			flow += f.weight * (a.End() - f.release)
			ideal += f.weight * f.pmin
			completed++
		}
		lost += len(c.Lost)
	}
	return planned / bound, flow / ideal, completed, lost
}

// repSample is one timed replay.
type repSample struct {
	requestMs, resultMs, allocKB float64
}

// replayWorkload is the untraced run shared by cluster-stream and
// grid-stream.
// layersFunc is the traced run of a replay workload, on one stream.
type layersFunc func(ctx context.Context, cfg runConfig, tr *tracer, sz replaySizes, st *stream, o *outcome) error

func replayWorkload(ctx context.Context, cfg runConfig, sz replaySizes, tr *tracer, layers layersFunc) (*outcome, error) {
	o := newOutcome()
	streams, err := buildStreams(ctx, cfg, sz, tr, o)
	if err != nil {
		return nil, err
	}
	// The compiled runners hold the jobs; the 15 MB arrival files need not
	// outlive the run.
	defer func() {
		for _, st := range streams {
			os.Remove(st.path)
		}
	}()
	o.sizes["jobs_per_replay"] = float64(sz.jobs)
	o.sizes["streams"] = float64(sz.streams)
	o.sizes["processors"] = float64(sumInts(sz.clusters))
	if cfg.trace {
		return o, layers(ctx, cfg, tr, sz, streams[0], o)
	}

	K := len(streams)
	samples := make([][]repSample, K)
	digests := make([][sha256.Size]byte, K)
	reports := make([]*scenario.Report, K)
	var buf bytes.Buffer
	start := wall.Now()
	for rep := 0; timeBox(start, cfg.seconds, rep, K); rep++ {
		k := rep % K
		st := streams[k]
		o.attempted++
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := wall.Now()
		report, err := st.runner.Run(ctx)
		t1 := wall.Now()
		if err != nil {
			o.fail(1, "stream %d: replay: %v", k, err)
			continue
		}
		rerr := render(&buf, st.runner, report)
		t2 := wall.Now()
		runtime.ReadMemStats(&after)
		if rerr != nil {
			o.fail(1, "stream %d: render: %v", k, rerr)
			continue
		}
		samples[k] = append(samples[k], repSample{
			requestMs: ms(t1.Sub(t0)),
			resultMs:  ms(t2.Sub(t0)),
			allocKB:   float64(after.TotalAlloc-before.TotalAlloc) / 1024,
		})
		d, err := digest(buf.Bytes(), report)
		if err != nil {
			return nil, err
		}
		if reports[k] == nil {
			reports[k], digests[k] = report, d
		} else if d != digests[k] {
			o.fail(1, "stream %d: replay %d differs from the stream's first replay", k, rep)
		}
	}

	// Median over streams of each stream's median; the per-rep samples kept
	// for -agree are rescaled to the run's level so that they show the
	// timing noise, not the difference between streams.
	pick := func(f func(repSample) float64) (level float64, rescaled []float64) {
		medians := make([]float64, K)
		for k := range samples {
			vals := make([]float64, len(samples[k]))
			for i, s := range samples[k] {
				vals[i] = f(s)
			}
			medians[k] = median(vals)
		}
		level = median(medians)
		for k := range samples {
			for _, s := range samples[k] {
				rescaled = append(rescaled, f(s)*level/medians[k])
			}
		}
		return level, rescaled
	}
	request, requestSamples := pick(func(s repSample) float64 { return s.requestMs })
	result, resultSamples := pick(func(s repSample) float64 { return s.resultMs })
	alloc, allocSamples := pick(func(s repSample) float64 { return s.allocKB })
	for i := range allocSamples {
		allocSamples[i] /= float64(sz.jobs)
	}
	o.samples["request_ms"], o.samples["result_ms"], o.samples["alloc_kb_per_job"] = requestSamples, resultSamples, allocSamples
	o.sizes["replays"] = float64(len(requestSamples))
	o.set("request_ms", request)
	o.set("result_ms", result)
	o.set("jobs_per_s", float64(sz.jobs)/(request/1e3))
	o.set("alloc_kb_per_job", alloc/float64(sz.jobs))

	var cmax, minsum, stretch []float64
	for k, report := range reports {
		if report == nil {
			continue
		}
		c, m, completed, lost := replayQuality(report, jobFactsOf(streams[k].arrivals))
		if completed != sz.jobs || lost != 0 || report.Jobs != sz.jobs {
			o.fail(1, "stream %d: %d of %d jobs completed, %d lost", k, completed, sz.jobs, lost)
		}
		if c < 1-1e-9 || m < 1-1e-9 {
			o.fail(1, "stream %d: quality ratios %g, %g below 1", k, c, m)
		}
		cmax, minsum, stretch = append(cmax, c), append(minsum, m), append(stretch, report.MeanStretch())
	}
	o.set("cmax_ratio", median(cmax))
	o.set("minsum_ratio", median(minsum))
	o.set("mean_stretch", median(stretch))

	// Determinism: the sequential replay of the first stream must render
	// the bytes its concurrent replays rendered.
	o.attempted++
	sequential, err := streams[0].sequential()
	if err != nil {
		return nil, err
	}
	report, err := sequential.Run(ctx)
	if err != nil {
		o.fail(1, "sequential replay: %v", err)
	} else if err := render(&buf, sequential, report); err != nil {
		o.fail(1, "sequential render: %v", err)
	} else if d, err := digest(buf.Bytes(), report); err != nil {
		return nil, err
	} else if d != digests[0] {
		o.fail(1, "sequential replay differs from the concurrent one")
	}
	return o, nil
}

func sumInts(vs []int) int {
	total := 0
	for _, v := range vs {
		total += v
	}
	return total
}

// clusterStream replays streams through one cluster engine.
func clusterStream(ctx context.Context, cfg runConfig, tr *tracer) (*outcome, error) {
	return replayWorkload(ctx, cfg, clusterSizes(cfg.quick), tr, clusterLayers)
}

// gridStream replays streams through the eight-shard federation.
func gridStream(ctx context.Context, cfg runConfig, tr *tracer) (*outcome, error) {
	return replayWorkload(ctx, cfg, gridSizes(cfg.quick), tr, gridLayers)
}

// observed collects what the scenario.Observer hooks of one sequential
// replay saw, stamped on the wall clock. The runner never calls two hooks
// at once.
type observed struct {
	start        time.Time
	lastDecision time.Time
	decisions    int
	// lastBatch is the instant of the latest Batch callback; batchGapMs the
	// gaps between successive callbacks: the wall time one batch took to
	// plan, place and simulate.
	lastBatch  time.Time
	batchGapMs []float64
	// shardLast is the instant of each cluster's last Batch callback.
	shardLast map[int]time.Time
}

func (ob *observed) observer(tr *tracer) scenario.Observer {
	return scenario.Observer{
		Decision: func(grid.Decision) {
			now := wall.Now()
			ob.lastDecision = now
			ob.decisions++
			ob.lastBatch = now
		},
		Batch: func(c int, _ cluster.BatchReport) {
			now := wall.Now()
			prev := ob.lastBatch
			ob.lastBatch = now
			ob.batchGapMs = append(ob.batchGapMs, ms(now.Sub(prev)))
			ob.shardLast[c] = now
			tr.add("cluster.batch", prev, now)
		},
	}
}

// observedReplay runs the sequential runner once with the observer hooks
// installed, inside a span.
func observedReplay(ctx context.Context, tr *tracer, name string, runner scenario.Runner) (*scenario.Report, *observed, error) {
	ob := &observed{shardLast: map[int]time.Time{}}
	runner.Observe(ob.observer(tr))
	defer runner.Observe(scenario.Observer{})
	id := tr.begin(name)
	ob.start = wall.Now()
	ob.lastBatch = ob.start
	rep, err := runner.Run(ctx)
	tr.end(id)
	return rep, ob, err
}

// timedRun replays once without hooks and returns the milliseconds.
func timedRun(ctx context.Context, runner scenario.Runner) (float64, error) {
	t0 := wall.Now()
	_, err := runner.Run(ctx)
	return since(t0), err
}

// replayVariants times the three ways one stream replays: sequential with
// the observer hooks (the traced replay), sequential without them, and
// concurrent; interleaved, a few times each.
func replayVariants(ctx context.Context, cfg runConfig, tr *tracer, prefix string, st *stream, o *outcome) (rep *scenario.Report, ob *observed, seq, conc float64, err error) {
	sequential, err := st.sequential()
	if err != nil {
		return nil, nil, 0, 0, err
	}
	var tracedMs, plainMs, concMs []float64
	for i := 0; i < cfg.repeats(); i++ {
		tr.setRep(i)
		o.attempted += 3
		t0 := wall.Now()
		rep, ob, err = observedReplay(ctx, tr, prefix+".replay_seq", sequential)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		tracedMs = append(tracedMs, since(t0))
		d, err := timedRun(ctx, sequential)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		plainMs = append(plainMs, d)
		if d, err = timedRun(ctx, st.runner); err != nil {
			return nil, nil, 0, 0, err
		}
		concMs = append(concMs, d)
	}
	o.samples["trace.traced_ms"], o.samples["trace.plain_ms"] = tracedMs, plainMs
	o.set("trace.overhead_share", overheadShare(tracedMs, plainMs))
	return rep, ob, median(tracedMs), median(concMs), nil
}

// batchInstances rebuilds the instance every committed batch scheduled,
// from the report's job lists and the stream's tasks.
func batchInstances(st *stream, m int, crep *cluster.Report) []*moldable.Instance {
	byID := make(map[int]moldable.Task, len(st.arrivals))
	for i := range st.arrivals {
		byID[st.arrivals[i].Task.ID] = st.arrivals[i].Task
	}
	out := make([]*moldable.Instance, len(crep.Batches))
	for b := range crep.Batches {
		tasks := make([]moldable.Task, len(crep.Batches[b].Jobs))
		for i, id := range crep.Batches[b].Jobs {
			tasks[i] = byID[id]
		}
		out[b] = moldable.NewInstance(m, tasks)
	}
	return out
}

// clusterLayers is the traced run of cluster-stream.
func clusterLayers(ctx context.Context, cfg runConfig, tr *tracer, sz replaySizes, st *stream, o *outcome) error {
	rep, ob, seq, conc, err := replayVariants(ctx, cfg, tr, "cluster", st, o)
	if err != nil {
		return err
	}
	crep := rep.Cluster
	o.set("scenario.compile_ms", tr.total("scenario.compile"))
	o.set("cluster.replay_seq_ms", seq)
	o.set("cluster.replay_ms", conc)
	o.set("cluster.portfolio_speedup", seq/conc)
	o.set("cluster.batches", float64(len(crep.Batches)))
	sizes := make([]float64, len(crep.Batches))
	for i := range crep.Batches {
		sizes[i] = float64(len(crep.Batches[i].Jobs))
	}
	o.set("cluster.batch_jobs_p50", orZero(median(sizes)))
	if v, ok := percentile(sizes, 95); ok {
		o.set("cluster.batch_jobs_p95", v)
	}
	o.set("cluster.batch_plan_ms_p50", orZero(median(ob.batchGapMs)))
	if v, ok := percentile(ob.batchGapMs, 95); ok {
		o.set("cluster.batch_plan_ms_p95", v)
	}

	var buf bytes.Buffer
	id := tr.begin("scenario.render")
	err = render(&buf, st.runner, rep)
	tr.end(id)
	if err != nil {
		return err
	}
	o.set("scenario.render_ms", tr.total("scenario.render"))

	// Re-execute every layer the engine calls per batch, on the batch
	// instances themselves: five portfolio members, the two lower bounds of
	// the combined objective, and the simulator on the winner's schedule.
	perturb, err := cluster.UniformNoise(sz.noise, st.seed)
	if err != nil {
		return err
	}
	members := cluster.DefaultPortfolio(nil)
	tr.setRep(0)
	all, winners := 0.0, 0.0
	for b, inst := range batchInstances(st, sz.clusters[0], crep) {
		o.attempted++
		for _, algo := range members {
			t0 := wall.Now()
			id := tr.begin("cluster.portfolio." + algo.Name)
			sched, err := algo.Run(ctx, inst)
			tr.end(id)
			d := since(t0)
			if err != nil {
				o.fail(1, "batch %d: %s: %v", b, algo.Name, err)
				continue
			}
			all += d
			if algo.Name != crep.Batches[b].Winner {
				continue
			}
			winners += d
			id = tr.begin("sim.execute")
			_, err = sim.Execute(inst, sched, &sim.Options{Perturb: perturb})
			tr.end(id)
			if err != nil {
				o.fail(1, "batch %d: sim: %v", b, err)
			}
		}
		id := tr.begin("lowerbound.makespan")
		lowerbound.Makespan(inst)
		tr.end(id)
		id = tr.begin("lowerbound.squashed_area")
		lowerbound.MinsumSquashedArea(inst)
		tr.end(id)
	}
	portfolio := 0.0
	for _, algo := range members {
		t := tr.total("cluster.portfolio." + algo.Name)
		o.set("cluster.portfolio."+algo.Name+"_ms", t)
		portfolio += t
	}
	if all > 0 {
		o.set("cluster.portfolio_wasted_share", 1-winners/all)
	}
	lbMakespan, lbArea, simMs := tr.total("lowerbound.makespan"), tr.total("lowerbound.squashed_area"), tr.total("sim.execute")
	o.set("lowerbound.makespan_ms", lbMakespan)
	o.set("lowerbound.squashed_area_ms", lbArea)
	o.set("sim.execute_ms", simMs)
	// The engine asks for the makespan bound twice per batch on its own
	// (the objective's normalizer and BatchReport.LowerBound); the third
	// computation sits inside DEMT and is already in its member time.
	o.set("cluster.engine_self_ms", seq-(portfolio+2*lbMakespan+lbArea+simMs))

	_, mallocs := memDelta(func() {
		if _, err := st.runner.Run(ctx); err != nil {
			o.fail(1, "allocation replay: %v", err)
		}
	})
	o.set("cluster.allocs_per_job", float64(mallocs)/float64(sz.jobs))
	return nil
}

// sloOutcomes turns a grid report into the SLO engine's input.
func sloOutcomes(st *stream, rep *grid.Report) []slo.JobOutcome {
	facts := jobFactsOf(st.arrivals)
	out := make([]slo.JobOutcome, 0, len(facts))
	for c, crep := range rep.Clusters {
		for _, a := range crep.Schedule.Assignments {
			f := facts[a.TaskID]
			out = append(out, slo.JobOutcome{
				Job: a.TaskID, Cluster: c, Release: f.release, Pmin: f.pmin,
				Start: a.Start, End: a.End(), Done: true,
			})
		}
	}
	return out
}

// gridLayers is the traced run of grid-stream.
func gridLayers(ctx context.Context, cfg runConfig, tr *tracer, sz replaySizes, st *stream, o *outcome) error {
	rep, ob, seq, conc, err := replayVariants(ctx, cfg, tr, "grid", st, o)
	if err != nil {
		return err
	}
	g := rep.Grid
	o.set("scenario.compile_ms", tr.total("scenario.compile"))
	o.set("grid.replay_seq_ms", seq)
	o.set("grid.replay_ms", conc)
	o.set("grid.shard_speedup", seq/conc)

	// Sequential shards run one after the other, so shard i's span lasts
	// from the end of the routing pass (or of shard i-1) to its own last
	// batch callback.
	route := ms(ob.lastDecision.Sub(ob.start))
	o.set("grid.route_ms", route)
	if ob.decisions > 0 {
		o.set("grid.route_us_per_job", route*1e3/float64(ob.decisions))
	}
	var shardMs []float64
	prev := ob.lastDecision
	for c := range sz.clusters {
		end, ok := ob.shardLast[c]
		if !ok {
			end = prev
		}
		tr.add("grid.shard", prev, end)
		shardMs = append(shardMs, ms(end.Sub(prev)))
		prev = end
	}
	shardSum, shardMax := sum(shardMs), 0.0
	for _, v := range shardMs {
		if v > shardMax {
			shardMax = v
		}
	}
	o.set("grid.shard_ms_sum", shardSum)
	o.set("grid.shard_ms_max", shardMax)
	if shardSum > 0 {
		o.set("grid.shard_time_imbalance", shardMax/(shardSum/float64(len(shardMs))))
	}
	cores := runtime.GOMAXPROCS(0)
	if cores > len(sz.clusters) {
		cores = len(sz.clusters)
	}
	o.set("grid.parallel_efficiency", (route+shardSum)/(conc*float64(cores)))

	o.set("faults.killed", float64(g.Metrics.Killed))
	o.set("faults.resubmitted", float64(g.Metrics.Resubmitted))
	o.set("faults.migrated", float64(g.Metrics.Migrated))
	if g.Metrics.Lost != 0 {
		o.fail(1, "%d jobs lost to faults", g.Metrics.Lost)
	}
	launched, cancelled := 0, 0
	for _, crep := range g.Clusters {
		for i := range crep.Batches {
			launched += len(crep.Batches[i].Candidates)
			cancelled += len(crep.Batches[i].CutOff)
		}
	}
	if launched > 0 {
		o.set("cluster.race_cancelled_share", float64(cancelled)/float64(launched))
	}

	id := tr.begin("flight.from_report")
	rec := flight.FromGridReport(g)
	tr.end(id)
	o.set("flight.from_report_ms", tr.total("flight.from_report"))
	o.set("flight.events", float64(len(rec.Events())))
	outcomes := sloOutcomes(st, g)
	id = tr.begin("slo.evaluate")
	slo.Evaluate(slo.Spec{DeadlineFactor: 4, MissBudget: 0.05, StretchTarget: 50, WaitTarget: 100}, outcomes)
	tr.end(id)
	o.set("slo.evaluate_ms", tr.total("slo.evaluate"))
	return nil
}
