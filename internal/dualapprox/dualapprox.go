// Package dualapprox implements the dual-approximation makespan machinery
// for moldable tasks used by the paper:
//
//   - a certified lower bound on the optimal makespan (binary search on the
//     classical necessary conditions: every task fits and the total minimal
//     work fits in the m*lambda area);
//
//   - the canonical allotment "smallest allocation that meets a deadline"
//     (reference [7] of the paper, Dutot/Mounié/Trystram, Handbook of
//     Scheduling ch. 28), reused by the list-scheduling baselines;
//
//   - a two-shelf construction (large shelf of length lambda, small shelf of
//     length lambda/2, small sequential tasks squeezed into the remaining
//     holes) driven by a knapsack partition, in the spirit of the MRT
//     algorithm (Mounié, Rapine, Trystram, SPAA'99). The construction is
//     used to produce the approximate optimal makespan C*max that anchors
//     the DEMT batch sizes.
//
// Cost. The instance's per-task facts come from a moldable.Table, built in
// one validating O(nm) walk: TwoShelf builds one, while TwoShelfTable and
// MakespanLowerBound read the caller's, so a caller holding the table
// scans and validates the instance no more. The table answers "smallest
// allocation meeting a deadline" by binary search for a task whose times
// never increase with k and whose work k*p(k) never drops more than Eps
// below an earlier allocation's, and by the O(m) scan for any other task,
// so a step of either bisection costs O(n log m) for such tasks. TwoShelf
// runs its O(nm) knapsack only at a step whose per-task (small?, c1, c2)
// signature differs from those of the last feasible and the last
// infeasible step, into tables allocated once per bisection: the
// decision table, a []bool of one entry per task and budget unit, is
// sized from the instance's task count at the first solve, however few
// shelf tasks that solve has. The knapsack fills the row of shelf task i
// only up to the total c1 of tasks 0..i, S_i: by induction from the
// all-zero first row, an entry past S_i is computed from the same operands
// as entry S_i, so it is read from there. TwoShelf builds the schedule
// once, at the final deadline; Estimate, which DEMT's step 1 calls, builds
// none and only tracks the latest end of the same layout.
package dualapprox

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"bicriteria/internal/listsched"
	"bicriteria/internal/moldable"
	"bicriteria/internal/schedule"
)

// MakespanLowerBound returns a valid lower bound on the optimal makespan of
// the table's instance. It is the smallest lambda satisfying the two
// classical necessary conditions for feasibility of a deadline lambda:
//
//  1. every task admits an allocation with p_i(k) <= lambda, and
//  2. the total minimal work of tasks under deadline lambda fits in the
//     area m*lambda.
//
// Because the minimal work W_i(lambda) is non-increasing in lambda, both
// conditions are monotone and the bound is found by bisection. The bound
// does not look at tab.Err: an invalid instance gets a value too.
func MakespanLowerBound(tab *moldable.Table) float64 {
	// Any feasible deadline is at least the longest fully-parallel task and
	// at least the total minimal work divided by the machine size, so the
	// bisection can start from the larger of the two.
	lo := tab.MaxMinTime
	if area := tab.TotalMinWork / float64(tab.Inst.M); area > lo {
		lo = area
	}
	// Upper bound: run every task at its fastest, one after the other.
	hi := tab.SumMinTime
	if hi < lo {
		hi = lo
	}
	if feasibleConditions(tab, lo) {
		return lo
	}
	for iter := 0; iter < 100 && hi-lo > 1e-9*(1+hi); iter++ {
		mid := (lo + hi) / 2
		if feasibleConditions(tab, mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// feasibleConditions checks the two necessary conditions for deadline
// lambda.
func feasibleConditions(tab *moldable.Table, lambda float64) bool {
	totalWork := 0.0
	for i := range tab.Inst.Tasks {
		w, ok := tab.MinWork(i, lambda)
		if !ok {
			return false
		}
		totalWork += w
	}
	return totalWork <= float64(tab.Inst.M)*lambda+moldable.Eps
}

// allotment returns, for every task (in instance order), the canonical
// allocation for the deadline: the smallest processor count whose
// processing time fits within the deadline; tasks that cannot fit fall back
// to their fastest allocation.
func allotment(tab *moldable.Table, deadline float64) []int {
	tasks := tab.Inst.Tasks
	allot := make([]int, len(tasks))
	for i := range allot {
		if k, ok := tab.MinAlloc(i, deadline); ok {
			allot[i] = k
		} else {
			_, k := tasks[i].MinTime()
			allot[i] = k
		}
	}
	return allot
}

// Result is the outcome of the two-shelf dual approximation.
type Result struct {
	// Lambda is the critical deadline found by the binary search (the
	// smallest deadline at which the two-shelf construction succeeded).
	Lambda float64
	// LowerBound is the certified makespan lower bound of the instance.
	LowerBound float64
	// Schedule is the feasible schedule built by the construction.
	Schedule *schedule.Schedule
	// Estimate is the makespan of Schedule, used as the approximate C*max
	// by the DEMT algorithm.
	Estimate float64
	// Shelf1, Shelf2 and Small list the task IDs assigned to the long
	// shelf, the short shelf and the small-sequential filler set.
	Shelf1, Shelf2, Small []int
	// Allotment gives the allocation retained for every task (instance
	// order) at the critical deadline.
	Allotment []int
}

// TwoShelf runs the dual-approximation construction: a bisection over the
// deadline lambda, keeping the smallest lambda for which the two-shelf
// structure (plus the small-task filler) yields a feasible schedule, and
// returns that schedule together with the certified lower bound. The
// bisection only decides feasibility; the schedule is built once, at the
// final lambda. An invalid instance fails with the error inst.Validate
// returns.
func TwoShelf(inst *moldable.Instance) (*Result, error) {
	tab := moldable.NewTable(inst)
	if tab.Err != nil {
		return nil, tab.Err
	}
	return twoShelf(tab, MakespanLowerBound(tab))
}

// TwoShelfTable is TwoShelf for a caller that already holds the instance's
// table and lb = MakespanLowerBound(tab): the bisection starts from lb
// instead of computing the bound again, and nothing scans or validates the
// instance again. Handed exactly that bound, it returns what TwoShelf
// returns, bit for bit, and tab.Err when the instance is invalid.
func TwoShelfTable(tab *moldable.Table, lb float64) (*Result, error) {
	if tab.Err != nil {
		return nil, tab.Err
	}
	return twoShelf(tab, lb)
}

func twoShelf(tab *moldable.Table, lb float64) (*Result, error) {
	sv := newShelfSolver(tab)
	lambda, found := sv.bisect(lb)
	var best *schedule.Schedule
	if found {
		best = schedule.New(tab.Inst.M)
		sv.build(lambda, best)
	} else {
		var err error
		if best, err = listFallback(tab, lambda); err != nil {
			return nil, err
		}
	}
	res := &Result{
		Lambda:     lambda,
		LowerBound: lb,
		Schedule:   best,
		Estimate:   best.Makespan(),
		Allotment:  allotment(tab, lambda),
	}
	classifyShelves(tab.Inst, lambda, res)
	return res, nil
}

// Estimate is TwoShelfTable(tab, lb).Estimate, bit for bit, for a caller
// that reads nothing else: it runs the same bisection and lays out the
// two-shelf schedule only to take its latest end, building no schedule,
// shelf lists or allotment. An invalid instance fails with tab.Err.
func Estimate(tab *moldable.Table, lb float64) (float64, error) {
	if tab.Err != nil {
		return 0, tab.Err
	}
	sv := newShelfSolver(tab)
	lambda, found := sv.bisect(lb)
	if found {
		return sv.build(lambda, nil), nil
	}
	fallback, err := listFallback(tab, lambda)
	if err != nil {
		return 0, err
	}
	return fallback.Makespan(), nil
}

// bisect searches the deadline between lb and the stacked upper bound for
// the smallest one at which the construction succeeds, and returns it. It
// returns the upper bound and false when no deadline it tried succeeded.
//
// The construction can fail even at the upper bound: every task that is not
// small and sequential must sit on one of two m-processor shelves, so three
// rigid tasks that each need the whole machine fit at no deadline. The list
// scheduler then builds the schedule with the allotment at the upper bound
// (listFallback).
func (s *shelfSolver) bisect(lb float64) (float64, bool) {
	// The upper bound stacks every task at its fastest allocation.
	lo, hi := lb, s.tab.SumMinTime
	found, best := s.feasible(hi), hi
	for iter := 0; iter < 60 && hi-lo > 1e-6*(1+hi); iter++ {
		mid := (lo + hi) / 2
		if s.feasible(mid) {
			found, best = true, mid
			hi = mid
		} else {
			lo = mid
		}
	}
	return best, found
}

// listFallback schedules every task with its deadline allotment through the
// Graham list scheduler (largest processing time first).
func listFallback(tab *moldable.Table, deadline float64) (*schedule.Schedule, error) {
	inst := tab.Inst
	allot := allotment(tab, deadline)
	items := make([]listsched.Item, len(inst.Tasks))
	for i := range inst.Tasks {
		items[i] = listsched.Item{
			TaskID:   inst.Tasks[i].ID,
			NProcs:   allot[i],
			Duration: inst.Tasks[i].Time(allot[i]),
		}
	}
	sort.SliceStable(items, func(a, b int) bool { return items[a].Duration > items[b].Duration })
	return listsched.GrahamContext(context.Background(), inst.M, items) //lint:allow ctxflow TwoShelf's list fallback has no context to pass; TwoShelf runs to completion by design
}

// shelfSolver decides the two-shelf construction at the deadlines of one
// bisection and builds its schedule at the last feasible one.
//
// Whether the construction succeeds depends on the deadline lambda only
// through each task's signature: a small sequential task (p(1) <= lambda/2)
// or a shelf task with allocations c1 meeting lambda and c2 meeting
// lambda/2. A deadline whose signature equals that of the last feasible or
// the last infeasible deadline solved reuses the verdict without running
// the knapsack.
type shelfSolver struct {
	tab *moldable.Table
	// sig is the signature at the deadline being decided, one entry per
	// task: 0 for a small sequential task, c1*(m+1)+c2 for a shelf task
	// (c2 = 0 when no allocation meets lambda/2).
	sig []int
	// yes and no are the signatures of the last feasible and the last
	// infeasible deadline solved (nil before the first); part is yes's
	// partition after the repair pass, one entry per shelf task in
	// instance order, true for the long shelf.
	yes, no []int
	part    []bool
	// The knapsack's inputs, reused from solve to solve.
	cost1, cost2 []int
	work1, work2 []float64
	// The knapsack's tables, reused from solve to solve: two dynamic
	// program rows, the flat decision table and the partition it returns.
	dp, next []float64
	choice   []bool
	shelf1   []bool
}

func newShelfSolver(tab *moldable.Table) *shelfSolver {
	return &shelfSolver{tab: tab, sig: make([]int, len(tab.Inst.Tasks))}
}

// feasible reports whether the construction succeeds at deadline lambda.
func (s *shelfSolver) feasible(lambda float64) bool {
	if !s.signature(lambda) {
		return false // the deadline is below some task's fastest time
	}
	if s.yes != nil && slices.Equal(s.sig, s.yes) {
		return true
	}
	if s.no != nil && slices.Equal(s.sig, s.no) {
		return false
	}
	part, ok := s.solve()
	if !ok {
		s.no = append(s.no[:0], s.sig...)
		return false
	}
	s.yes, s.part = append(s.yes[:0], s.sig...), append(s.part[:0], part...)
	return true
}

// signature fills s.sig for deadline lambda. It returns false when some
// shelf task has no allocation meeting lambda.
func (s *shelfSolver) signature(lambda float64) bool {
	tasks, stride := s.tab.Inst.Tasks, s.tab.Inst.M+1
	for i := range tasks {
		if tasks[i].SeqTime() <= lambda/2+moldable.Eps {
			s.sig[i] = 0
			continue
		}
		c1, ok := s.tab.MinAlloc(i, lambda)
		if !ok {
			return false
		}
		c2, _ := s.tab.MinAlloc(i, lambda/2)
		s.sig[i] = c1*stride + c2
	}
	return true
}

// solve runs the knapsack partition and the repair pass on s.sig and
// returns the partition, or false when the structure is infeasible. The
// partition is the solver's buffer, overwritten by the next solve.
func (s *shelfSolver) solve() ([]bool, bool) {
	inst := s.tab.Inst
	m, stride := inst.M, inst.M+1
	s.cost1, s.cost2, s.work1, s.work2 = s.cost1[:0], s.cost2[:0], s.work1[:0], s.work2[:0]
	for i, sg := range s.sig {
		if sg == 0 {
			continue
		}
		t := &inst.Tasks[i]
		c1, c2 := sg/stride, sg%stride
		w2 := math.Inf(1)
		if c2 > 0 {
			w2 = t.Work(c2)
		}
		s.cost1, s.cost2 = append(s.cost1, c1), append(s.cost2, c2)
		s.work1, s.work2 = append(s.work1, t.Work(c1)), append(s.work2, w2)
	}

	// Knapsack partition: minimize total work, shelf-1 processor budget m,
	// into a decision table sized for every task (see the package doc).
	if s.choice == nil {
		s.choice = make([]bool, len(inst.Tasks)*stride)
	}
	onShelf1, _, err := s.minCostPartition(s.cost1, s.work1, s.work2, m)
	if err != nil {
		return nil, false
	}

	// Repair pass: the short shelf also has only m processors. Move the
	// cheapest shelf-2 tasks back to shelf 1 while its budget allows.
	shelf1Procs, shelf2Procs := 0, 0
	for j, on := range onShelf1 {
		if on {
			shelf1Procs += s.cost1[j]
		} else {
			shelf2Procs += s.cost2[j]
		}
	}
	for shelf2Procs > m {
		bestJ := -1
		bestDelta := math.Inf(1)
		for j, on := range onShelf1 {
			if on || shelf1Procs+s.cost1[j] > m {
				continue
			}
			if delta := s.work1[j] - s.work2[j]; delta < bestDelta {
				bestDelta = delta
				bestJ = j
			}
		}
		if bestJ < 0 {
			return nil, false
		}
		onShelf1[bestJ] = true
		shelf1Procs += s.cost1[bestJ]
		shelf2Procs -= s.cost2[bestJ]
	}
	return onShelf1, true
}

// minCostPartition solves the two-shelf assignment problem of the
// construction: each item goes either to shelf 1 (using cost1[i]
// processors of the shelf-1 budget, incurring work1[i]) or to shelf 2
// (incurring work2[i], no shelf-1 processors). Items with work2[i] = +Inf
// are forced to shelf 1. It minimizes the total work under the shelf-1
// processor budget and returns, for each item, whether it is placed on
// shelf 1, plus the total work. It returns an error when the forced items
// alone exceed the budget or an item cannot be placed anywhere.
//
// The dynamic program fills row i only up to min(budget, S_i), where S_i
// is the total cost of items 0..i: by induction from the all-zero row
// before item 0, an entry j >= S_i is computed from the same operands as
// entry S_i (both read the previous row at S_{i-1}), so it holds the same
// bits and makes the same choice, and it is read as entry min(j, S_i). It
// runs in O(n * (budget+1)) time at worst. Its two value rows and its flat
// n * (budget+1) decision table belong to the solver and grow to the
// largest problem solved (solve sizes the table for the whole instance up
// front), so a bisection allocates them once; every entry a solve reads it
// writes first. The returned slice is the solver's too, overwritten by the
// next solve.
func (s *shelfSolver) minCostPartition(cost1 []int, work1, work2 []float64, budget int) (shelf1 []bool, totalWork float64, err error) {
	n := len(cost1)
	if len(work1) != n || len(work2) != n {
		return nil, 0, fmt.Errorf("dualapprox: inconsistent slice lengths %d/%d/%d", len(cost1), len(work1), len(work2))
	}
	if budget < 0 {
		return nil, 0, fmt.Errorf("dualapprox: negative budget %d", budget)
	}
	const inf = math.MaxFloat64 / 4
	// dp[j] = minimal total work using at most j shelf-1 processors, held
	// on [0, top] with top = min(budget, S_{i-1}); next is the row being
	// filled, swapped in after every item.
	width := budget + 1
	s.dp, s.next = grow(s.dp, width), grow(s.next, width)
	s.choice = grow(s.choice, n*width) // choice[i*width+j]: item i on shelf 1 when budget j
	dp, next, choice := s.dp, s.next, s.choice
	dp[0] = 0
	top, sum := 0, 0
	for i := 0; i < n; i++ {
		c, w1, w2 := cost1[i], work1[i], work2[i]
		sum += c
		hi := min(budget, sum)
		// dp past top reads as dp[top]: write it out to hi.
		for j := top + 1; j <= hi; j++ {
			dp[j] = dp[top]
		}
		row, nx := choice[i*width:i*width+hi+1], next[:hi+1]
		shelf2 := !math.IsInf(w2, 1)
		// Below c, shelf 2 is the only option (when work2 is finite).
		below := min(c, hi+1)
		clear(row[:below])
		for j := range nx[:below] {
			nx[j] = inf
			if shelf2 {
				nx[j] = dp[j] + w2
			}
		}
		// From c on, shelf 1 when it is cheaper: entry j reads dp[j-c],
		// held since j-c <= S_{i-1}. The two loops differ in shelf 2 only:
		// one loop testing shelf2 at every entry ran about a third slower
		// in BenchmarkMinCostPartition.
		if c <= hi {
			from := dp[:hi+1-c]
			span := len(from) // resliced to span, the loops check no bounds
			same, to, took := dp[c:][:span], nx[c:][:span], row[c:][:span]
			if shelf2 {
				for j, v := range from {
					best, cand := same[j]+w2, v+w1
					take := cand < best
					if take {
						best = cand
					}
					to[j], took[j] = best, take
				}
			} else {
				for j, v := range from {
					best, cand := inf, v+w1
					take := cand < best
					if take {
						best = cand
					}
					to[j], took[j] = best, take
				}
			}
		}
		dp, next = next, dp
		top = hi
	}
	if dp[top] >= inf {
		return nil, 0, fmt.Errorf("dualapprox: no feasible two-shelf partition within budget %d", budget)
	}
	s.shelf1 = grow(s.shelf1, n)
	shelf1 = s.shelf1
	// Walk back from budget, reading row i at min(j, S_i).
	j := budget
	for i := n - 1; i >= 0; i-- {
		shelf1[i] = choice[i*width+min(j, sum)]
		if shelf1[i] {
			j -= cost1[i]
		}
		sum -= cost1[i]
	}
	return shelf1, dp[top], nil
}

// grow returns buf resliced to n entries, reallocated only when its
// capacity is short. The entries keep whatever the last use left there.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// build lays out the two-shelf schedule at lambda into sched and returns
// its makespan, the latest Start + Duration, taken as Schedule.Makespan
// takes it. A nil sched lays out nothing: build then only tracks the
// latest end. lambda must be the last deadline feasible returned true for:
// feasible replaces yes and part only when it returns true, so they still
// hold that deadline's signature and partition.
func (s *shelfSolver) build(lambda float64, sched *schedule.Schedule) float64 {
	inst := s.tab.Inst
	m, stride := inst.M, inst.M+1
	var smallSeq []int // indices of tasks with p(1) <= lambda/2
	cmax := 0.0

	// procs backs every assignment's processor list: a shelf task holds its
	// c1 or c2 processors, a small task one. add places task t on count
	// processors numbered from the given one on, handing it the next
	// capacity-clipped window of procs.
	var procs []int
	if sched != nil {
		total, j := 0, 0
		for _, sg := range s.yes {
			switch {
			case sg == 0:
				total++
				continue
			case s.part[j]:
				total += sg / stride
			default:
				total += sg % stride
			}
			j++
		}
		procs = make([]int, total)
		sched.Assignments = make([]schedule.Assignment, 0, len(inst.Tasks))
	}
	add := func(t *moldable.Task, start float64, from, count int, d float64) {
		if e := start + d; e > cmax {
			cmax = e
		}
		if sched == nil {
			return
		}
		p := procs[:count:count]
		procs = procs[count:]
		for q := range p {
			p[q] = from + q
		}
		sched.Add(schedule.Assignment{TaskID: t.ID, Start: start, NProcs: count, Procs: p, Duration: d})
	}

	// Long shelf at time 0, short shelf at time lambda. end1 and end2
	// track, per processor, the busy prefix [0, end1) and the second busy
	// block [lambda, end2) so small tasks can fill the holes.
	nextProcShelf1, nextProcShelf2 := 0, 0
	end1 := make([]float64, m)
	end2 := make([]float64, m)
	for p := range end2 {
		end2[p] = lambda
	}
	j := 0
	for i, sg := range s.yes {
		if sg == 0 {
			smallSeq = append(smallSeq, i)
			continue
		}
		t := &inst.Tasks[i]
		if s.part[j] {
			c1 := sg / stride
			d := t.Time(c1)
			for p := nextProcShelf1; p < nextProcShelf1+c1; p++ {
				end1[p] = d
			}
			add(t, 0, nextProcShelf1, c1, d)
			nextProcShelf1 += c1
		} else {
			c2 := sg % stride
			d := t.Time(c2)
			for p := nextProcShelf2; p < nextProcShelf2+c2; p++ {
				end2[p] = lambda + d
			}
			add(t, lambda, nextProcShelf2, c2, d)
			nextProcShelf2 += c2
		}
		j++
	}

	// Place the small sequential tasks: first into the holes between the
	// two shelves (best fit), otherwise after the short shelf on the least
	// loaded processor. Process longest first for better packing.
	sort.Slice(smallSeq, func(a, b int) bool {
		return inst.Tasks[smallSeq[a]].SeqTime() > inst.Tasks[smallSeq[b]].SeqTime()
	})
	for _, idx := range smallSeq {
		t := &inst.Tasks[idx]
		d := t.SeqTime()
		bestProc, bestSlack := -1, math.Inf(1)
		for p := 0; p < m; p++ {
			slack := lambda - end1[p]
			if d <= slack+moldable.Eps && slack < bestSlack {
				bestSlack = slack
				bestProc = p
			}
		}
		if bestProc >= 0 {
			add(t, end1[bestProc], bestProc, 1, d)
			end1[bestProc] += d
			continue
		}
		// Append after the short shelf on the earliest-available processor.
		bestProc = 0
		for p := 1; p < m; p++ {
			if end2[p] < end2[bestProc] {
				bestProc = p
			}
		}
		add(t, end2[bestProc], bestProc, 1, d)
		end2[bestProc] += d
	}
	return cmax
}

// classifyShelves fills the Shelf1/Shelf2/Small fields of the result from
// the final schedule geometry.
func classifyShelves(inst *moldable.Instance, lambda float64, res *Result) {
	byID := make(map[int]*moldable.Task, len(inst.Tasks))
	for i := range inst.Tasks {
		byID[inst.Tasks[i].ID] = &inst.Tasks[i]
	}
	for i := range res.Schedule.Assignments {
		a := &res.Schedule.Assignments[i]
		t := byID[a.TaskID]
		switch {
		case t != nil && t.SeqTime() <= lambda/2+moldable.Eps && a.NProcs == 1:
			res.Small = append(res.Small, a.TaskID)
		case a.Start < lambda-moldable.Eps:
			res.Shelf1 = append(res.Shelf1, a.TaskID)
		default:
			res.Shelf2 = append(res.Shelf2, a.TaskID)
		}
	}
	sort.Ints(res.Shelf1)
	sort.Ints(res.Shelf2)
	sort.Ints(res.Small)
}
