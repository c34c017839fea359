package dualapprox

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"bicriteria/internal/listsched"
	"bicriteria/internal/moldable"
	"bicriteria/internal/schedule"
	"bicriteria/internal/workload"
)

// randomFitTask draws a task of at most m allocations from one of the
// shapes the fit table must get right: monotone, perfectly moldable (work
// ties up to rounding), equal times, work dips just inside and just outside
// Eps, non-monotone times, and rigid.
func randomFitTask(r *rand.Rand, id, m int) moldable.Task {
	k := 1 + r.Intn(m)
	seq := 0.5 + 20*r.Float64()
	times := make([]float64, k)
	switch r.Intn(7) {
	case 0: // monotone: each step speeds up by (c/(c+1))^a, a in [0, 1)
		times[0] = seq
		for c := 1; c < k; c++ {
			times[c] = times[c-1] * math.Pow(float64(c)/float64(c+1), r.Float64())
		}
	case 1:
		return moldable.PerfectlyMoldable(id, 1, seq, k)
	case 2: // equal times: work grows linearly
		for c := range times {
			times[c] = seq
		}
	case 3, 4: // a work dip at one allocation, within Eps (case 3) or past it
		for c := range times {
			times[c] = seq / float64(c+1)
		}
		if k > 1 {
			c := 1 + r.Intn(k-1)
			dip := moldable.Eps * (0.2 + 0.6*r.Float64())
			if r.Intn(2) == 0 {
				dip = moldable.Eps * (1.5 + 10*r.Float64())
			}
			times[c] = (seq - dip) / float64(c+1)
		}
	case 5: // non-monotone times
		for c := range times {
			times[c] = 0.1 + seq*r.Float64()
		}
	default:
		return rigid(id, 1, k, seq)
	}
	return moldable.Task{ID: id, Weight: 1, Times: times}
}

// rigid builds a task that must run on exactly procs processors: any
// smaller allocation gets an untouchable, very large processing time so
// that schedulers never pick it, and larger allocations are not offered.
func rigid(id int, weight float64, procs int, duration float64) moldable.Task {
	if procs < 1 {
		procs = 1
	}
	times := make([]float64, procs)
	for k := 0; k < procs-1; k++ {
		times[k] = duration * float64(procs) * 1e6
	}
	times[procs-1] = duration
	return moldable.Task{ID: id, Weight: weight, Times: times}
}

// namedInstance is one instance of the oracle tests.
type namedInstance struct {
	name string
	inst *moldable.Instance
}

// oracleInstances returns, for every machine size of ms, every workload
// family at 1, 7 and 40 tasks, a mix of the shapes randomFitTask draws
// (rigid and non-monotone tasks among them) and, from m = 2 on, a crowded
// instance on which the knapsack fails over a range of signatures.
func oracleInstances(t *testing.T, r *rand.Rand, ms []int) []namedInstance {
	var cases []namedInstance
	for _, m := range ms {
		for _, kind := range workload.Kinds() {
			for _, n := range []int{1, 7, 40} {
				inst, err := workload.Generate(workload.Config{Kind: kind, M: m, N: n, Seed: int64(31*m + n)})
				if err != nil {
					t.Fatal(err)
				}
				cases = append(cases, namedInstance{fmt.Sprintf("%v/m=%d/n=%d", kind, m, n), inst})
			}
		}
		tasks := make([]moldable.Task, 25)
		for i := range tasks {
			tasks[i] = randomFitTask(r, 3*i+1, m)
		}
		cases = append(cases, namedInstance{fmt.Sprintf("shapes/m=%d", m), moldable.NewInstance(m, tasks)})
		if m == 1 {
			continue
		}
		// Between m and 2m tasks that gain nothing from parallelism, with
		// close processing times: below the deadline twice their time they
		// are shelf tasks that no allocation fits on the short shelf, too
		// many for the long one, so the knapsack fails over a range of
		// signatures and infeasible verdicts get reused.
		tasks = make([]moldable.Task, m+1+r.Intn(m-1))
		for i := range tasks {
			if i%5 == 4 {
				tasks[i] = randomFitTask(r, i, m)
				continue
			}
			times := make([]float64, 1+r.Intn(m))
			p := 1 + 0.3*r.Float64()
			for c := range times {
				times[c] = p
			}
			tasks[i] = moldable.Task{ID: i, Weight: 1, Times: times}
		}
		cases = append(cases, namedInstance{fmt.Sprintf("crowded/m=%d", m), moldable.NewInstance(m, tasks)})
	}
	return cases
}

// TestTwoShelfMatchesReference runs TwoShelf and the bisection as it stood
// before the fit table, the signature memo, the single final build and the
// prefix-bounded knapsack rows, and requires deep-equal results on every
// workload family, a mix with rigid and non-monotone tasks, and machine
// sizes from 1 to 200.
func TestTwoShelfMatchesReference(t *testing.T) {
	cases := oracleInstances(t, rand.New(rand.NewSource(7)), []int{1, 3, 32, 200})
	for _, c := range cases {
		want, wantErr := referenceTwoShelf(c.inst)
		got, err := TwoShelf(c.inst)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s: error %v, reference %v", c.name, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: results differ\ngot  %+v\nwant %+v", c.name, got, want)
		}
		tab := moldable.NewTable(c.inst)
		lb := MakespanLowerBound(tab)
		if lb != referenceLowerBound(c.inst) {
			t.Fatalf("%s: lower bound %v, reference %v", c.name, lb, referenceLowerBound(c.inst))
		}
		if got, err := TwoShelfTable(tab, lb); !reflect.DeepEqual(got, want) || (err != nil) != (wantErr != nil) {
			t.Fatalf("%s: TwoShelfTable differs from the reference (error %v)", c.name, err)
		}
	}
}

// TestEstimateMatchesReference holds Estimate, which builds no schedule,
// to TwoShelfTable(...).Estimate bit for bit, and to its failure, on every
// workload family at m = 1, 16 and 200, the rigid and non-monotone mixes,
// the list fallback's three machine-wide rigid tasks and an invalid
// instance.
func TestEstimateMatchesReference(t *testing.T) {
	cases := oracleInstances(t, rand.New(rand.NewSource(11)), []int{1, 16, 200})
	cases = append(cases,
		namedInstance{"list-fallback", moldable.NewInstance(8, []moldable.Task{
			rigid(0, 1, 8, 1), rigid(1, 1, 8, 1), rigid(2, 1, 8, 1),
		})},
		namedInstance{"invalid", &moldable.Instance{M: 0}},
	)
	for _, c := range cases {
		tab := moldable.NewTable(c.inst)
		lb := MakespanLowerBound(tab)
		want, wantErr := TwoShelfTable(tab, lb)
		got, err := Estimate(tab, lb)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: error %v, TwoShelfTable's %v", c.name, err, wantErr)
		}
		if wantErr == nil && math.Float64bits(got) != math.Float64bits(want.Estimate) {
			t.Fatalf("%s: estimate %v, TwoShelfTable's %v", c.name, got, want.Estimate)
		}
	}
}

// The reference implementation: every query scans the task's times, and
// every feasible step of the bisection builds its schedule.

func referenceLowerBound(inst *moldable.Instance) float64 {
	lo, totalMinWork := 0.0, 0.0
	for i := range inst.Tasks {
		if p, _ := inst.Tasks[i].MinTime(); p > lo {
			lo = p
		}
		w, _ := inst.Tasks[i].MinWork()
		totalMinWork += w
	}
	if area := totalMinWork / float64(inst.M); area > lo {
		lo = area
	}
	hi := 0.0
	for i := range inst.Tasks {
		p, _ := inst.Tasks[i].MinTime()
		hi += p
	}
	if hi < lo {
		hi = lo
	}
	feasible := func(lambda float64) bool {
		totalWork := 0.0
		for i := range inst.Tasks {
			_, w, ok := inst.Tasks[i].MinWorkFitting(lambda)
			if !ok {
				return false
			}
			totalWork += w
		}
		return totalWork <= float64(inst.M)*lambda+moldable.Eps
	}
	if feasible(lo) {
		return lo
	}
	for iter := 0; iter < 100 && hi-lo > 1e-9*(1+hi); iter++ {
		mid := (lo + hi) / 2
		if feasible(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// minAllocFitting is the oracle's own scan for the smallest allocation
// whose processing time fits within d (within moldable.Eps).
func minAllocFitting(t *moldable.Task, d float64) (int, bool) {
	for k := 1; k <= t.MaxProcs(); k++ {
		if t.Time(k) <= d+moldable.Eps {
			return k, true
		}
	}
	return 0, false
}

func referenceAllotment(inst *moldable.Instance, deadline float64) []int {
	allot := make([]int, len(inst.Tasks))
	for i := range inst.Tasks {
		if k, ok := minAllocFitting(&inst.Tasks[i], deadline); ok {
			allot[i] = k
		} else {
			_, k := inst.Tasks[i].MinTime()
			allot[i] = k
		}
	}
	return allot
}

func referenceTwoShelf(inst *moldable.Instance) (*Result, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	lb := referenceLowerBound(inst)
	hi := 0.0
	for i := range inst.Tasks {
		p, _ := inst.Tasks[i].MinTime()
		hi += p
	}
	lo := lb
	best, bestLambda := referenceBuild(inst, hi), hi
	if best == nil {
		allot := referenceAllotment(inst, hi)
		items := make([]listsched.Item, len(inst.Tasks))
		for i := range inst.Tasks {
			items[i] = listsched.Item{TaskID: inst.Tasks[i].ID, NProcs: allot[i], Duration: inst.Tasks[i].Time(allot[i])}
		}
		sort.SliceStable(items, func(a, b int) bool { return items[a].Duration > items[b].Duration })
		var err error
		if best, err = listsched.GrahamContext(context.Background(), inst.M, items); err != nil {
			return nil, err
		}
	}
	for iter := 0; iter < 60 && hi-lo > 1e-6*(1+hi); iter++ {
		mid := (lo + hi) / 2
		if s := referenceBuild(inst, mid); s != nil {
			best, bestLambda = s, mid
			hi = mid
		} else {
			lo = mid
		}
	}
	res := &Result{
		Lambda:     bestLambda,
		LowerBound: lb,
		Schedule:   best,
		Estimate:   best.Makespan(),
		Allotment:  referenceAllotment(inst, bestLambda),
	}
	for i := range res.Schedule.Assignments {
		a := &res.Schedule.Assignments[i]
		task := inst.Task(a.TaskID)
		switch {
		case task != nil && task.SeqTime() <= bestLambda/2+moldable.Eps && a.NProcs == 1:
			res.Small = append(res.Small, a.TaskID)
		case a.Start < bestLambda-moldable.Eps:
			res.Shelf1 = append(res.Shelf1, a.TaskID)
		default:
			res.Shelf2 = append(res.Shelf2, a.TaskID)
		}
	}
	sort.Ints(res.Shelf1)
	sort.Ints(res.Shelf2)
	sort.Ints(res.Small)
	return res, nil
}

func referenceBuild(inst *moldable.Instance, lambda float64) *schedule.Schedule {
	m := inst.M
	type entry struct{ idx, c1, c2 int }
	var shelfTasks []entry
	var smallSeq []int
	for i := range inst.Tasks {
		task := &inst.Tasks[i]
		if task.SeqTime() <= lambda/2+moldable.Eps {
			smallSeq = append(smallSeq, i)
			continue
		}
		c1, ok := minAllocFitting(task, lambda)
		if !ok {
			return nil
		}
		c2, ok2 := minAllocFitting(task, lambda/2)
		if !ok2 {
			c2 = 0
		}
		shelfTasks = append(shelfTasks, entry{i, c1, c2})
	}
	cost1 := make([]int, len(shelfTasks))
	work1 := make([]float64, len(shelfTasks))
	work2 := make([]float64, len(shelfTasks))
	for j, e := range shelfTasks {
		task := &inst.Tasks[e.idx]
		cost1[j] = e.c1
		work1[j] = task.Work(e.c1)
		work2[j] = math.Inf(1)
		if e.c2 > 0 {
			work2[j] = task.Work(e.c2)
		}
	}
	onShelf1, _, err := referenceMinCostPartition(cost1, work1, work2, m)
	if err != nil {
		return nil
	}
	shelf1Procs, shelf2Procs := 0, 0
	for j, e := range shelfTasks {
		if onShelf1[j] {
			shelf1Procs += e.c1
		} else {
			shelf2Procs += e.c2
		}
	}
	for shelf2Procs > m {
		bestJ, bestDelta := -1, math.Inf(1)
		for j, e := range shelfTasks {
			if onShelf1[j] || shelf1Procs+e.c1 > m {
				continue
			}
			if delta := work1[j] - work2[j]; delta < bestDelta {
				bestDelta, bestJ = delta, j
			}
		}
		if bestJ < 0 {
			return nil
		}
		onShelf1[bestJ] = true
		shelf1Procs += shelfTasks[bestJ].c1
		shelf2Procs -= shelfTasks[bestJ].c2
	}
	sched := schedule.New(m)
	next1, next2 := 0, 0
	end1, end2 := make([]float64, m), make([]float64, m)
	for p := range end2 {
		end2[p] = lambda
	}
	for j, e := range shelfTasks {
		task := &inst.Tasks[e.idx]
		if onShelf1[j] {
			procs := procRange(next1, e.c1)
			next1 += e.c1
			d := task.Time(e.c1)
			for _, p := range procs {
				end1[p] = d
			}
			sched.Add(schedule.Assignment{TaskID: task.ID, Start: 0, NProcs: e.c1, Procs: procs, Duration: d})
		} else {
			procs := procRange(next2, e.c2)
			next2 += e.c2
			d := task.Time(e.c2)
			for _, p := range procs {
				end2[p] = lambda + d
			}
			sched.Add(schedule.Assignment{TaskID: task.ID, Start: lambda, NProcs: e.c2, Procs: procs, Duration: d})
		}
	}
	sort.Slice(smallSeq, func(a, b int) bool {
		return inst.Tasks[smallSeq[a]].SeqTime() > inst.Tasks[smallSeq[b]].SeqTime()
	})
	for _, idx := range smallSeq {
		task := &inst.Tasks[idx]
		d := task.SeqTime()
		bestProc, bestSlack := -1, math.Inf(1)
		for p := 0; p < m; p++ {
			slack := lambda - end1[p]
			if d <= slack+moldable.Eps && slack < bestSlack {
				bestSlack, bestProc = slack, p
			}
		}
		if bestProc >= 0 {
			sched.Add(schedule.Assignment{TaskID: task.ID, Start: end1[bestProc], NProcs: 1, Procs: []int{bestProc}, Duration: d})
			end1[bestProc] += d
			continue
		}
		bestProc = 0
		for p := 1; p < m; p++ {
			if end2[p] < end2[bestProc] {
				bestProc = p
			}
		}
		sched.Add(schedule.Assignment{TaskID: task.ID, Start: end2[bestProc], NProcs: 1, Procs: []int{bestProc}, Duration: d})
		end2[bestProc] += d
	}
	return sched
}

// referenceMinCostPartition is minCostPartition as it stood before its rows
// stopped at their running cost sum: every row spans the whole budget, in
// fresh tables.
func referenceMinCostPartition(cost1 []int, work1, work2 []float64, budget int) ([]bool, float64, error) {
	n := len(cost1)
	if len(work1) != n || len(work2) != n {
		return nil, 0, fmt.Errorf("dualapprox: inconsistent slice lengths %d/%d/%d", len(cost1), len(work1), len(work2))
	}
	if budget < 0 {
		return nil, 0, fmt.Errorf("dualapprox: negative budget %d", budget)
	}
	const inf = math.MaxFloat64 / 4
	width := budget + 1
	dp, next := make([]float64, width), make([]float64, width)
	choice := make([]bool, n*width)
	for i := 0; i < n; i++ {
		c, w1, w2 := cost1[i], work1[i], work2[i]
		row := choice[i*width : (i+1)*width]
		shelf2 := !math.IsInf(w2, 1)
		for j := range next {
			bestVal := inf
			if shelf2 {
				bestVal = dp[j] + w2
			}
			if c <= j {
				if cand := dp[j-c] + w1; cand < bestVal {
					bestVal = cand
					row[j] = true
				}
			}
			next[j] = bestVal
		}
		dp, next = next, dp
	}
	if dp[budget] >= inf {
		return nil, 0, fmt.Errorf("dualapprox: no feasible two-shelf partition within budget %d", budget)
	}
	shelf1 := make([]bool, n)
	j := budget
	for i := n - 1; i >= 0; i-- {
		shelf1[i] = choice[i*width+j]
		if shelf1[i] {
			j -= cost1[i]
		}
	}
	return shelf1, dp[budget], nil
}

// procRange returns processor indices [from, from+count).
func procRange(from, count int) []int {
	out := make([]int, count)
	for i := range out {
		out[i] = from + i
	}
	return out
}
