package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"bicriteria/internal/core"
	"bicriteria/internal/dualapprox"
	"bicriteria/internal/lowerbound"
	"bicriteria/internal/moldable"
	"bicriteria/internal/workload"
)

// offlineSizes freezes the paper's experiment grid.
type offlineSizes struct {
	// m is the machine size; the paper uses 200 processors.
	m int
	// ns are the task counts of the sweep.
	ns []int
	// replicates is the number of instances per (family, n) cell. Four
	// keep the mean ratios within ~1% from one -seed to the next.
	replicates int
	// lpMaxN caps the instances the LP-relaxation bound is computed for:
	// at n = 400 one MinsumLP costs 0.3–0.5 s, more than ten passes of the
	// scheduler being measured.
	lpMaxN int
}

func paperSizes(quick bool) offlineSizes {
	if quick {
		return offlineSizes{m: 32, ns: []int{10, 20}, replicates: 1, lpMaxN: 20}
	}
	return offlineSizes{m: 200, ns: []int{25, 50, 100, 200, 400}, replicates: 4, lpMaxN: 200}
}

// offlineInputs is the product of one set-up.
type offlineInputs struct {
	insts []*moldable.Instance
	tasks int
}

// buildOffline generates the instance grid from the seed, validates it and
// runs the warm-up pass.
func buildOffline(ctx context.Context, seed int64, sz offlineSizes) (*offlineInputs, error) {
	kinds := workload.Kinds()
	seeds := subSeeds(seed, 0x0ff11e, len(kinds)*len(sz.ns)*sz.replicates)
	in := &offlineInputs{}
	for _, kind := range kinds {
		for _, n := range sz.ns {
			for r := 0; r < sz.replicates; r++ {
				inst, err := workload.Generate(workload.Config{Kind: kind, M: sz.m, N: n, Seed: seeds[len(in.insts)]})
				if err != nil {
					return nil, err
				}
				if err := inst.Validate(); err != nil {
					return nil, err
				}
				in.insts = append(in.insts, inst)
				in.tasks += n
			}
		}
	}
	for _, inst := range in.insts {
		if _, err := core.ScheduleContext(ctx, inst, nil); err != nil {
			return nil, fmt.Errorf("warm-up schedule: %w", err)
		}
	}
	return in, nil
}

// offlineStretch is the mean over tasks of completion time over fastest
// possible execution time: the off-line reading (release 0) of the stretch
// the replay reports carry.
func offlineStretch(inst *moldable.Instance, res *core.Result) float64 {
	total := 0.0
	for _, a := range res.Schedule.Assignments {
		pmin, _ := inst.Task(a.TaskID).MinTime()
		total += a.End() / pmin
	}
	return total / float64(len(res.Schedule.Assignments))
}

// paperOffline is the paper's experiment, off line: every instance of the
// grid scheduled by DEMT, pass after pass.
func paperOffline(ctx context.Context, cfg runConfig, tr *tracer) (*outcome, error) {
	sz := paperSizes(cfg.quick)
	o := newOutcome()
	in, err := timeSetups(cfg, o, func() (*offlineInputs, error) { return buildOffline(ctx, cfg.seed, sz) }, nil)
	if err != nil {
		return nil, err
	}
	o.sizes["m"] = float64(sz.m)
	o.sizes["instances"] = float64(len(in.insts))
	o.sizes["tasks_per_pass"] = float64(in.tasks)
	if cfg.trace {
		return o, offlineLayers(ctx, cfg, tr, sz, in, o)
	}

	type criteria struct{ cmax, minsum float64 }
	first := make([]criteria, len(in.insts))
	results := make([]*core.Result, len(in.insts))
	var requestMs, resultMs []float64
	start := wall.Now()
	bytes, _ := memDelta(func() {
		for pass := 0; timeBox(start, cfg.seconds, pass, 3); pass++ {
			schedule, deliver := 0.0, 0.0
			for i, inst := range in.insts {
				o.attempted++
				t0 := wall.Now()
				res, err := core.ScheduleContext(ctx, inst, nil)
				t1 := wall.Now()
				schedule += ms(t1.Sub(t0))
				if err != nil {
					o.fail(1, "instance %d: %v", i, err)
					continue
				}
				// What the caller does before it can use a schedule:
				// check it and read its criteria.
				verr := res.Schedule.Validate(inst, nil)
				met := res.Schedule.ComputeMetrics(inst)
				deliver += since(t1)
				if verr != nil {
					o.fail(1, "instance %d: invalid schedule: %v", i, verr)
					continue
				}
				d := criteria{met.Makespan, met.WeightedCompletion}
				if pass == 0 {
					first[i], results[i] = d, res
				} else if d != first[i] {
					o.fail(1, "instance %d: pass %d scheduled differently from pass 0", i, pass)
				}
			}
			requestMs = append(requestMs, schedule)
			resultMs = append(resultMs, schedule+deliver)
		}
	})
	passes := len(requestMs)
	o.sizes["passes"] = float64(passes)
	o.samples["request_ms"] = requestMs
	o.samples["result_ms"] = resultMs
	o.set("request_ms", median(requestMs))
	o.set("result_ms", median(resultMs))
	o.set("jobs_per_s", float64(in.tasks)/(median(requestMs)/1e3))
	o.set("alloc_kb_per_job", float64(bytes)/1024/float64(passes*in.tasks))

	// Quality against the paper's lower bounds, outside the timed phase.
	var cmax, minsum, stretch []float64
	for i, inst := range in.insts {
		res := results[i]
		if res == nil {
			continue
		}
		r := first[i].cmax / lowerbound.Makespan(inst)
		if r < 1-1e-9 {
			o.fail(1, "instance %d: makespan ratio %g below 1", i, r)
		}
		cmax = append(cmax, r)
		stretch = append(stretch, offlineStretch(inst, res))
		if inst.N() > sz.lpMaxN {
			continue
		}
		lb, err := lowerbound.MinsumLP(inst, nil)
		if err != nil {
			o.fail(1, "instance %d: minsum LP bound: %v", i, err)
			continue
		}
		r = first[i].minsum / lb.Value
		if r < 1-1e-9 {
			o.fail(1, "instance %d: minsum ratio %g below 1", i, r)
		}
		minsum = append(minsum, r)
	}
	o.set("cmax_ratio", mean(cmax))
	o.set("minsum_ratio", mean(minsum))
	o.set("mean_stretch", mean(stretch))
	return o, nil
}

// fitDeadlines is the number of geometric deadlines the fit-query probe
// asks every task about, from half its fastest time to twice its
// sequential time: the range the dual approximation's bisection visits.
const fitDeadlines = 32

// fitQueryNs times Task.MinWorkFitting, the O(m) scan inside the dual
// approximation, and returns the mean nanoseconds per query.
func fitQueryNs(insts []*moldable.Instance) float64 {
	queries := 0
	sink := 0
	t0 := wall.Now()
	for _, inst := range insts {
		for i := range inst.Tasks {
			t := &inst.Tasks[i]
			pmin, _ := t.MinTime()
			lo, hi := pmin/2, 2*t.SeqTime()
			step := math.Pow(hi/lo, 1/float64(fitDeadlines-1))
			for d, q := lo, 0; q < fitDeadlines; d, q = d*step, q+1 {
				k, _, _ := t.MinWorkFitting(d)
				sink += k
				queries++
			}
		}
	}
	elapsed := wall.Now().Sub(t0)
	if sink < 0 || queries == 0 {
		return 0
	}
	return float64(elapsed.Nanoseconds()) / float64(queries)
}

// offlineLayers is the traced run of paper-offline: spans around every
// layer's public function on every instance, a few passes over.
func offlineLayers(ctx context.Context, cfg runConfig, tr *tracer, sz offlineSizes, in *offlineInputs, o *outcome) error {
	pivots, batches, shuffles := 0, 0, 0
	for pass := 0; pass < cfg.repeats(); pass++ {
		tr.setRep(pass)
		pivots, batches, shuffles = 0, 0, 0
		for i, inst := range in.insts {
			o.attempted++
			id := tr.begin("moldable.validate")
			err := inst.Validate()
			tr.end(id)
			if err != nil {
				o.fail(1, "instance %d: %v", i, err)
				continue
			}

			id = tr.begin("core.schedule")
			res, err := core.ScheduleContext(ctx, inst, nil)
			tr.end(id)
			if err != nil {
				o.fail(1, "instance %d: %v", i, err)
				continue
			}
			batches += len(res.Batches)
			shuffles += res.ShufflesTried

			id = tr.begin("dualapprox.two_shelf")
			da, err := dualapprox.TwoShelf(inst)
			tr.end(id)
			if err != nil {
				o.fail(1, "instance %d: two-shelf: %v", i, err)
				continue
			}

			// The same schedule with step 1 handed in, so that the Timing
			// hook's two phases can be laid under it as children.
			opts := &core.Options{CmaxEstimate: da.Estimate, Timing: func(phase string, seconds float64) {
				end := wall.Now()
				tr.add("core."+phase, end.Add(-time.Duration(seconds*float64(time.Second))), end)
			}}
			id = tr.begin("core.given_cmax")
			given, err := core.ScheduleContext(ctx, inst, opts)
			tr.end(id)
			if err != nil {
				o.fail(1, "instance %d: given cmax: %v", i, err)
				continue
			}
			if given.Schedule.Makespan() != res.Schedule.Makespan() {
				o.fail(1, "instance %d: preset CmaxEstimate changed the schedule", i)
			}

			id = tr.begin("schedule.validate")
			err = res.Schedule.Validate(inst, nil)
			tr.end(id)
			if err != nil {
				o.fail(1, "instance %d: invalid schedule: %v", i, err)
			}

			id = tr.begin("lowerbound.makespan")
			lowerbound.Makespan(inst)
			tr.end(id)
			id = tr.begin("lowerbound.squashed_area")
			lowerbound.MinsumSquashedArea(inst)
			tr.end(id)
			if inst.N() <= sz.lpMaxN {
				id = tr.begin("lowerbound.minsum_lp")
				lb, err := lowerbound.MinsumLP(inst, nil)
				tr.end(id)
				if err != nil {
					o.fail(1, "instance %d: minsum LP bound: %v", i, err)
					continue
				}
				pivots += lb.Iterations
			}
		}
	}
	n := float64(len(in.insts))
	schedule := tr.total("core.schedule")
	twoShelf := tr.total("dualapprox.two_shelf")
	knapsack, compact := tr.total("core.knapsack"), tr.total("core.compact")
	o.set("moldable.validate_ms", tr.total("moldable.validate"))
	o.set("moldable.fit_query_ns", fitQueryNs(in.insts))
	o.set("dualapprox.two_shelf_ms", twoShelf)
	o.set("core.schedule_ms", schedule)
	o.set("core.given_cmax_ms", tr.total("core.given_cmax"))
	o.set("core.knapsack_ms", knapsack)
	o.set("core.compact_ms", compact)
	if schedule > 0 {
		o.set("core.unattributed_share", 1-(twoShelf+knapsack+compact)/schedule)
	}
	o.set("core.batches_per_schedule", float64(batches)/n)
	o.set("core.shuffles_tried", float64(shuffles)/n)
	o.set("lowerbound.makespan_ms", tr.total("lowerbound.makespan"))
	o.set("lowerbound.squashed_area_ms", tr.total("lowerbound.squashed_area"))
	o.set("lowerbound.minsum_lp_ms", tr.total("lowerbound.minsum_lp"))
	o.set("lp.pivots", float64(pivots))
	o.set("schedule.validate_ms", tr.total("schedule.validate"))

	// Allocation counts and the cost of tracing: plain passes of the
	// end-to-end call, with and without a span around each.
	pass := func(t *tracer) float64 {
		t0 := wall.Now()
		for _, inst := range in.insts {
			id := t.begin("overhead.schedule")
			_, err := core.ScheduleContext(ctx, inst, nil)
			t.end(id)
			if err != nil {
				o.fail(1, "overhead pass: %v", err)
			}
		}
		return since(t0)
	}
	bytes, mallocs := memDelta(func() { pass(nil) })
	o.set("core.allocs_per_schedule", float64(mallocs)/n)
	o.set("core.alloc_kb_per_schedule", float64(bytes)/1024/n)
	var plain, traced []float64
	for i := 0; i < cfg.repeats(); i++ {
		plain = append(plain, pass(nil))
		traced = append(traced, pass(tr))
	}
	o.samples["trace.plain_ms"], o.samples["trace.traced_ms"] = plain, traced
	o.set("trace.overhead_share", overheadShare(traced, plain))
	return nil
}
