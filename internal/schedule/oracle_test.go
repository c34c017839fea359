package schedule

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"bicriteria/internal/moldable"
)

// validateReference is Validate as it was before it dropped its maps: the
// oracle TestValidateMatchesReference holds the current one to, verdict
// and error text alike.
func validateReference(s *Schedule, inst *moldable.Instance, opts *ValidateOptions) error {
	if opts == nil {
		opts = &ValidateOptions{}
	}
	if s.M != inst.M {
		return fmt.Errorf("schedule: machine size mismatch (schedule %d, instance %d)", s.M, inst.M)
	}
	seen := make(map[int]int)
	for i := range s.Assignments {
		a := &s.Assignments[i]
		t := inst.Task(a.TaskID)
		if t == nil {
			return fmt.Errorf("schedule: assignment %d references unknown task %d", i, a.TaskID)
		}
		seen[a.TaskID]++
		if seen[a.TaskID] > 1 {
			return fmt.Errorf("schedule: task %d scheduled more than once", a.TaskID)
		}
		if a.NProcs < 1 || a.NProcs > t.MaxProcs() {
			return fmt.Errorf("schedule: task %d allotted %d processors (valid range 1..%d)", a.TaskID, a.NProcs, t.MaxProcs())
		}
		if a.NProcs > s.M {
			return fmt.Errorf("schedule: task %d allotted %d processors but machine has %d", a.TaskID, a.NProcs, s.M)
		}
		want := t.Time(a.NProcs)
		if math.Abs(a.Duration-want) > 1e-6*(1+want) {
			return fmt.Errorf("schedule: task %d duration %g does not match p(%d)=%g", a.TaskID, a.Duration, a.NProcs, want)
		}
		if a.Start < -moldable.Eps {
			return fmt.Errorf("schedule: task %d starts at negative time %g", a.TaskID, a.Start)
		}
		if opts.ReleaseDates != nil {
			if r, ok := opts.ReleaseDates[a.TaskID]; ok && a.Start < r-1e-6 {
				return fmt.Errorf("schedule: task %d starts at %g before its release date %g", a.TaskID, a.Start, r)
			}
		}
		if a.Procs != nil {
			if len(a.Procs) != a.NProcs {
				return fmt.Errorf("schedule: task %d lists %d processors but NProcs=%d", a.TaskID, len(a.Procs), a.NProcs)
			}
			dup := make(map[int]bool, len(a.Procs))
			for _, p := range a.Procs {
				if p < 0 || p >= s.M {
					return fmt.Errorf("schedule: task %d uses processor %d outside [0,%d)", a.TaskID, p, s.M)
				}
				if dup[p] {
					return fmt.Errorf("schedule: task %d uses processor %d twice", a.TaskID, p)
				}
				dup[p] = true
			}
		}
	}
	if !opts.AllowMissingTasks {
		for i := range inst.Tasks {
			if seen[inst.Tasks[i].ID] == 0 {
				return fmt.Errorf("schedule: task %d is not scheduled", inst.Tasks[i].ID)
			}
		}
	}
	type event struct {
		t     float64
		delta int
	}
	events := make([]event, 0, 2*len(s.Assignments))
	for i := range s.Assignments {
		a := &s.Assignments[i]
		events = append(events, event{a.Start, a.NProcs}, event{a.End(), -a.NProcs})
	}
	sort.Slice(events, func(i, j int) bool {
		if math.Abs(events[i].t-events[j].t) <= moldable.Eps {
			return events[i].delta < events[j].delta
		}
		return events[i].t < events[j].t
	})
	busy := 0
	for _, e := range events {
		busy += e.delta
		if busy > s.M {
			return fmt.Errorf("schedule: %d processors busy at time %g but machine has only %d", busy, e.t, s.M)
		}
	}
	type span struct {
		start, end float64
		task       int
	}
	perProc := make(map[int][]span)
	for i := range s.Assignments {
		a := &s.Assignments[i]
		if a.Procs == nil {
			continue
		}
		for _, p := range a.Procs {
			perProc[p] = append(perProc[p], span{a.Start, a.End(), a.TaskID})
		}
	}
	procs := make([]int, 0, len(perProc))
	for p := range perProc {
		procs = append(procs, p)
	}
	sort.Ints(procs)
	for _, p := range procs {
		spans := perProc[p]
		sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
		for i := 1; i < len(spans); i++ {
			if spans[i].start < spans[i-1].end-1e-6 {
				return fmt.Errorf("schedule: processor %d runs tasks %d and %d simultaneously (overlap at %g)",
					p, spans[i-1].task, spans[i].task, spans[i].start)
			}
		}
	}
	return nil
}

// oracleCase builds a random instance and a feasible schedule of it. IDs
// are drawn from a small range of either sign and may repeat (the first
// task of an ID is the one scheduled); times are often whole numbers, so
// starts and ends tie; some instances keep time vectors longer than M,
// and some schedules omit the processor lists.
func oracleCase(r *rand.Rand) (*moldable.Instance, *Schedule, map[int]float64) {
	m := 1 + r.Intn(9)
	n := 1 + r.Intn(14)
	tasks := make([]moldable.Task, n)
	for i := range tasks {
		k := 1 + r.Intn(m+1)
		times := make([]float64, k)
		for j := range times {
			if r.Intn(2) == 0 {
				times[j] = float64(1 + r.Intn(4))
			} else {
				times[j] = 0.25 + 4*r.Float64()
			}
		}
		tasks[i] = moldable.Task{ID: r.Intn(2*n+2) - n/2, Weight: float64(r.Intn(4)), Times: times}
	}
	inst := &moldable.Instance{M: m, Tasks: tasks}
	if r.Intn(3) > 0 {
		inst = moldable.NewInstance(m, tasks)
	}
	// Schedule the first task of every ID, in random order, on the k
	// processors that free up first (ties to the lowest index).
	first := map[int]bool{}
	var todo []int
	for i, t := range inst.Tasks {
		if !first[t.ID] {
			first[t.ID] = true
			todo = append(todo, i)
		}
	}
	r.Shuffle(len(todo), func(a, b int) { todo[a], todo[b] = todo[b], todo[a] })
	withProcs := r.Intn(4) > 0
	s := New(m)
	free := make([]float64, m)
	releases := map[int]float64{}
	for _, i := range todo {
		t := &inst.Tasks[i]
		k := 1 + r.Intn(min(t.MaxProcs(), m))
		order := make([]int, m)
		for p := range order {
			order[p] = p
		}
		sort.SliceStable(order, func(a, b int) bool { return free[order[a]] < free[order[b]] })
		procs := append([]int(nil), order[:k]...)
		r.Shuffle(len(procs), func(a, b int) { procs[a], procs[b] = procs[b], procs[a] })
		start := 0.0
		for _, p := range procs {
			start = max(start, free[p])
		}
		if r.Intn(3) == 0 {
			start += float64(r.Intn(2))
		}
		d := t.Time(k)
		for _, p := range procs {
			free[p] = start + d
		}
		if !withProcs {
			procs = nil
		}
		s.Add(Assignment{TaskID: t.ID, Start: start, NProcs: k, Procs: procs, Duration: d})
		releases[t.ID] = start - float64(r.Intn(2))
	}
	return inst, s, releases
}

// validateMutations each turn a feasible schedule into one kind of
// infeasible (or borderline) one; false means not applicable here.
var validateMutations = []struct {
	name string
	mut  func(r *rand.Rand, inst *moldable.Instance, s *Schedule, rel map[int]float64) bool
}{
	{"unknown task", func(r *rand.Rand, inst *moldable.Instance, s *Schedule, _ map[int]float64) bool {
		s.Assignments[r.Intn(len(s.Assignments))].TaskID = 1 << 20
		return true
	}},
	{"duplicate task", func(r *rand.Rand, inst *moldable.Instance, s *Schedule, _ map[int]float64) bool {
		a := s.Assignments[r.Intn(len(s.Assignments))]
		a.Procs = append([]int(nil), a.Procs...)
		s.Add(a)
		return true
	}},
	{"duplicate task id", func(r *rand.Rand, inst *moldable.Instance, s *Schedule, _ map[int]float64) bool {
		if len(s.Assignments) < 2 {
			return false
		}
		s.Assignments[1+r.Intn(len(s.Assignments)-1)].TaskID = s.Assignments[0].TaskID
		return true
	}},
	{"bad allotment", func(r *rand.Rand, inst *moldable.Instance, s *Schedule, _ map[int]float64) bool {
		a := &s.Assignments[r.Intn(len(s.Assignments))]
		a.NProcs = []int{0, -1, a.NProcs + 1, s.M + 1}[r.Intn(4)]
		return true
	}},
	{"duration", func(r *rand.Rand, inst *moldable.Instance, s *Schedule, _ map[int]float64) bool {
		a := &s.Assignments[r.Intn(len(s.Assignments))]
		a.Duration += []float64{1e-9, 1e-3, 1, -0.1, math.NaN()}[r.Intn(5)]
		return true
	}},
	{"negative start", func(r *rand.Rand, inst *moldable.Instance, s *Schedule, _ map[int]float64) bool {
		s.Assignments[r.Intn(len(s.Assignments))].Start = []float64{-1, -moldable.Eps / 2, -2 * moldable.Eps, math.NaN()}[r.Intn(4)]
		return true
	}},
	{"release", func(r *rand.Rand, inst *moldable.Instance, s *Schedule, rel map[int]float64) bool {
		a := &s.Assignments[r.Intn(len(s.Assignments))]
		rel[a.TaskID] = a.Start + []float64{1e-7, 1e-5, 1}[r.Intn(3)]
		return true
	}},
	{"processor count", func(r *rand.Rand, inst *moldable.Instance, s *Schedule, _ map[int]float64) bool {
		a := &s.Assignments[r.Intn(len(s.Assignments))]
		if a.Procs == nil {
			return false
		}
		if r.Intn(2) == 0 {
			a.Procs = a.Procs[1:]
		} else {
			a.Procs = append(a.Procs, 0)
		}
		return true
	}},
	{"processor out of range", func(r *rand.Rand, inst *moldable.Instance, s *Schedule, _ map[int]float64) bool {
		a := &s.Assignments[r.Intn(len(s.Assignments))]
		if a.Procs == nil {
			return false
		}
		a.Procs[r.Intn(len(a.Procs))] = []int{-1, s.M, s.M + 7}[r.Intn(3)]
		return true
	}},
	{"repeated processor", func(r *rand.Rand, inst *moldable.Instance, s *Schedule, _ map[int]float64) bool {
		a := &s.Assignments[r.Intn(len(s.Assignments))]
		if len(a.Procs) < 2 {
			return false
		}
		a.Procs[len(a.Procs)-1] = a.Procs[r.Intn(len(a.Procs)-1)]
		return true
	}},
	{"missing task", func(r *rand.Rand, inst *moldable.Instance, s *Schedule, _ map[int]float64) bool {
		i := r.Intn(len(s.Assignments))
		s.Assignments = append(s.Assignments[:i], s.Assignments[i+1:]...)
		return true
	}},
	{"capacity", func(r *rand.Rand, inst *moldable.Instance, s *Schedule, _ map[int]float64) bool {
		for i := range s.Assignments {
			s.Assignments[i].Procs = nil
			if r.Intn(2) == 0 {
				s.Assignments[i].Start = float64(r.Intn(2))
			}
		}
		return true
	}},
	{"overlap on two processors", func(r *rand.Rand, inst *moldable.Instance, s *Schedule, _ map[int]float64) bool {
		if len(s.Assignments) < 2 || s.M < 3 {
			return false
		}
		a, b := &s.Assignments[r.Intn(len(s.Assignments))], &s.Assignments[r.Intn(len(s.Assignments))]
		if a == b || a.Procs == nil || a.NProcs < 2 || b.NProcs < 2 {
			return false
		}
		// b takes a's first two processors (in a's listed order, not
		// ascending) at a start inside a's run; its other processors must
		// differ from those two.
		b.Procs = append([]int{a.Procs[0], a.Procs[1]}, b.Procs[2:]...)
		for j := 2; j < len(b.Procs); j++ {
			for b.Procs[j] == a.Procs[0] || b.Procs[j] == a.Procs[1] || contains(b.Procs[2:j], b.Procs[j]) {
				b.Procs[j] = (b.Procs[j] + 1) % s.M
			}
		}
		b.Start = a.Start + r.Float64()*a.Duration/2
		return true
	}},
	{"shifted start", func(r *rand.Rand, inst *moldable.Instance, s *Schedule, _ map[int]float64) bool {
		a := &s.Assignments[r.Intn(len(s.Assignments))]
		// The small shifts straddle the overlap check's 1e-6 tolerance.
		a.Start = []float64{0, a.Start - 1, a.Start + 0.5, float64(r.Intn(5)), a.Start - 2e-6, a.Start - 5e-7}[r.Intn(6)]
		return true
	}},
}

func contains(ps []int, p int) bool {
	for _, q := range ps {
		if q == p {
			return true
		}
	}
	return false
}

// TestValidateMatchesReference holds Validate to the map-based
// implementation it replaced: the same verdict and the same error text on
// random feasible schedules and on single mutations of them, with and
// without release dates and AllowMissingTasks. It also checks
// WeightedCompletion, which finds tasks through the same index, against
// lookups by Instance.Task.
func TestValidateMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	rejected := map[string]int{}
	for trial := 0; trial < 1500; trial++ {
		caseSeed := r.Int63()
		inst, s, _ := oracleCase(rand.New(rand.NewSource(caseSeed)))
		if err := validateReference(s, inst, nil); err != nil {
			t.Fatalf("trial %d: the generator built an infeasible schedule: %v", trial, err)
		}
		checkIndexedCriteria(t, trial, inst, s)
		for _, mu := range validateMutations {
			inst, s, rel := oracleCase(rand.New(rand.NewSource(caseSeed)))
			if !mu.mut(r, inst, s, rel) {
				continue
			}
			for _, opts := range []*ValidateOptions{nil, {ReleaseDates: rel}, {AllowMissingTasks: true}} {
				got, want := s.Validate(inst, opts), validateReference(s, inst, opts)
				if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
					t.Fatalf("trial %d, %s, options %+v:\n got  %v\n want %v\nschedule %+v", trial, mu.name, opts, got, want, s.Assignments)
				}
				if want != nil {
					rejected[mu.name]++
				}
			}
		}
	}
	for _, mu := range validateMutations {
		if rejected[mu.name] == 0 {
			t.Errorf("mutation %q was never rejected: the oracle does not exercise it", mu.name)
		}
	}
}

func checkIndexedCriteria(t *testing.T, trial int, inst *moldable.Instance, s *Schedule) {
	t.Helper()
	wc := 0.0
	for _, a := range s.Assignments {
		wc += inst.Task(a.TaskID).Weight * a.End()
	}
	if got := s.WeightedCompletion(inst); got != wc {
		t.Fatalf("trial %d: WeightedCompletion = %v, want %v", trial, got, wc)
	}
}
