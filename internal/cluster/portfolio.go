package cluster

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"bicriteria/internal/baselines"
	"bicriteria/internal/core"
	"bicriteria/internal/dualapprox"
	"bicriteria/internal/lowerbound"
	"bicriteria/internal/moldable"
	"bicriteria/internal/obs"
	"bicriteria/internal/schedule"
)

// Algorithm is one member of the portfolio: any off-line scheduler for a
// moldable instance. Run must be deterministic (seeded internally) for the
// engine's replay guarantees to hold, and must honor the context so a
// draining service can cancel a batch mid-schedule: on cancellation it
// returns an error wrapping ctx.Err(). The engine hands a portfolio with
// a member built outside this package a fresh copy of every batch's time
// vectors, so what Run writes there never reaches the submitted jobs.
type Algorithm struct {
	// Name identifies the algorithm in reports and winner counts.
	Name string
	// Run schedules the batch instance.
	Run func(ctx context.Context, inst *moldable.Instance) (*schedule.Schedule, error)

	// plan, set on the members DEMTAlgorithm and DefaultPortfolio build,
	// is Run reading the batch's shared dual approximation; the portfolio
	// calls it instead of Run.
	plan func(ctx context.Context, f *batchFacts) (*schedule.Schedule, error)
}

// sharing builds a member from its plan: the portfolio hands plan the
// batch's shared facts, and Run computes fresh ones for the instance.
func sharing(name string, plan func(ctx context.Context, f *batchFacts) (*schedule.Schedule, error)) Algorithm {
	return Algorithm{Name: name, plan: plan, Run: func(ctx context.Context, inst *moldable.Instance) (*schedule.Schedule, error) {
		return plan(ctx, &batchFacts{inst: inst})
	}}
}

// batchFacts is what the portfolio's members share about one batch: the
// instance's moldable.Table, the makespan lower bound and the two-shelf
// dual approximation, each computed at most once, and only when first
// asked for, however many members ask. The members run one at a time, so
// plain memo fields suffice. The table is the batch's one validation, and
// the bound, the dual approximation, DEMT, gang and seq-lpt all read it;
// the dual approximation starts from the bound, so the bound is computed
// once either way. The members only read the results.
type batchFacts struct {
	inst *moldable.Instance

	tab *moldable.Table

	lbDone bool
	lb     float64

	daDone bool
	da     *dualapprox.Result
	daErr  error
}

// table is moldable.NewTable of the batch.
func (f *batchFacts) table() *moldable.Table {
	if f.tab == nil {
		f.tab = moldable.NewTable(f.inst)
	}
	return f.tab
}

// cmaxLB is lowerbound.Makespan of the batch.
func (f *batchFacts) cmaxLB() float64 {
	if !f.lbDone {
		f.lb, f.lbDone = dualapprox.MakespanLowerBound(f.table()), true
	}
	return f.lb
}

// twoShelf is dualapprox.TwoShelf of the batch.
func (f *batchFacts) twoShelf() (*dualapprox.Result, error) {
	if !f.daDone {
		f.da, f.daErr = dualapprox.TwoShelfTable(f.table(), f.cmaxLB())
		f.daDone = true
	}
	return f.da, f.daErr
}

// DEMTAlgorithm wraps the paper's bi-criteria scheduler as a portfolio
// member. A nil options pointer gives the paper's defaults. In a portfolio
// DEMT reads the batch's shared task table and takes its C*max estimate
// (step 1) from the batch's shared dual approximation, unless opts sets
// CmaxEstimate. The time it spent getting the table, building it or
// reading the one an earlier member built, is reported as part of
// opts.Timing's "validate" phase, and the time it spent getting the
// estimate as part of "dualapprox".
func DEMTAlgorithm(opts *core.Options) Algorithm {
	return sharing("demt", func(ctx context.Context, f *batchFacts) (*schedule.Schedule, error) {
		var own core.Options
		if opts != nil {
			own = *opts
		}
		var tab *moldable.Table
		validated := timed(func() { tab = f.table() })
		estimated := 0.0
		if !(own.CmaxEstimate > 0) {
			var da *dualapprox.Result
			var err error
			estimated = timed(func() { da, err = f.twoShelf() })
			if err != nil {
				return nil, err
			}
			own.CmaxEstimate = da.Estimate
		}
		if timing := own.Timing; timing != nil {
			own.Timing = func(phase string, seconds float64) {
				switch phase {
				case "validate":
					seconds += validated
				case "dualapprox":
					seconds += estimated
				}
				timing(phase, seconds)
			}
		}
		res, err := core.ScheduleTable(ctx, tab, &own)
		if err != nil {
			return nil, err
		}
		return res.Schedule, nil
	})
}

// timed runs fn and returns the wall-clock seconds it took.
func timed(fn func()) float64 {
	start := time.Now() //lint:allow nowallclock wall-clock feeds the Timing observability hook only, never a scheduling decision
	fn()
	return time.Since(start).Seconds() //lint:allow nowallclock wall-clock feeds the Timing observability hook only, never a scheduling decision
}

// DefaultPortfolio returns the paper's full comparison as a portfolio: DEMT
// plus every baseline of the evaluation section. A nil options pointer
// gives DEMT the paper's defaults. Every member reads the batch's one task
// table, so the batch is validated once. DEMT, list-saf and list-wlpt
// start from the same two-shelf dual approximation, which the portfolio
// computes once per batch and hands to all three.
func DefaultPortfolio(opts *core.Options) []Algorithm {
	list := func(name string, order baselines.ListOrder) Algorithm {
		return sharing(name, func(ctx context.Context, f *batchFacts) (*schedule.Schedule, error) {
			da, err := f.twoShelf()
			if err != nil {
				return nil, err
			}
			return baselines.ListGrahamWithAllotmentContext(ctx, f.inst, da, order)
		})
	}
	return []Algorithm{
		DEMTAlgorithm(opts),
		sharing("gang", func(ctx context.Context, f *batchFacts) (*schedule.Schedule, error) {
			return baselines.GangContext(ctx, f.table())
		}),
		sharing("seq-lpt", func(ctx context.Context, f *batchFacts) (*schedule.Schedule, error) {
			return baselines.SequentialContext(ctx, f.table())
		}),
		list("list-saf", baselines.SmallestAreaFirst),
		list("list-wlpt", baselines.WeightedLPT),
	}
}

// ObjectiveKind selects the criterion the engine minimizes when committing
// a batch schedule.
type ObjectiveKind int

const (
	// ObjectiveMakespan commits the schedule with the smallest makespan.
	ObjectiveMakespan ObjectiveKind = iota
	// ObjectiveWeightedCompletion commits the schedule with the smallest
	// weighted sum of completion times.
	ObjectiveWeightedCompletion
	// ObjectiveCombined commits the schedule minimizing the convex
	// combination Alpha * Cmax/LB(Cmax) + (1-Alpha) * sum wC / LB(sum wC):
	// both criteria normalized by their per-batch lower bounds so the
	// combination is scale-free, as in the paper's bi-criteria analysis.
	ObjectiveCombined
)

// String returns the CLI name of the objective.
func (k ObjectiveKind) String() string {
	switch k {
	case ObjectiveMakespan:
		return "makespan"
	case ObjectiveWeightedCompletion:
		return "minsum"
	case ObjectiveCombined:
		return "combined"
	default:
		return fmt.Sprintf("ObjectiveKind(%d)", int(k))
	}
}

// Objective configures the commit criterion. The zero value minimizes the
// makespan.
type Objective struct {
	Kind ObjectiveKind
	// Alpha is the weight of the (normalized) makespan in the combined
	// objective; it must lie in [0, 1]. Ignored by the pure objectives.
	Alpha float64
}

// validate checks the objective.
func (o Objective) validate() error {
	switch o.Kind {
	case ObjectiveMakespan, ObjectiveWeightedCompletion:
		return nil
	case ObjectiveCombined:
		if o.Alpha < 0 || o.Alpha > 1 || math.IsNaN(o.Alpha) {
			return fmt.Errorf("cluster: combined objective needs Alpha in [0,1], got %g", o.Alpha)
		}
		return nil
	}
	return fmt.Errorf("cluster: unknown objective kind %d", int(o.Kind))
}

// Racing configures portfolio racing: instead of running every member to
// completion, the engine commits as soon as one candidate's score, in
// launch order, is provably within Cutoff of the batch lower bound from
// internal/lowerbound; the members past the cut never start. The cut is
// decided by the deterministic launch order and per-candidate
// qualification alone, so replays stay byte-identical.
type Racing struct {
	// Cutoff is the early-cutoff factor: a candidate whose objective value
	// is within Cutoff times the batch lower bound wins immediately and
	// the members after it in launch order never start. 0 or 1 disables
	// racing (no candidate can beat the bound itself); useful values are
	// small factors such as 1.5 or 2.
	Cutoff float64
	// Bandit biases the launch order toward recent winners with a seeded,
	// deterministic win-count selector, so the member most likely to hit
	// the cutoff is launched (and therefore qualifies) first.
	Bandit bool
	// Seed seeds the bandit's exploration draws; 0 picks a fixed default
	// so replays stay deterministic.
	Seed int64
}

// enabled reports whether racing is active: a cutoff factor above 1.
func (r Racing) enabled() bool { return r.Cutoff > 1 }

// validate checks the racing configuration.
func (r Racing) validate() error {
	if math.IsNaN(r.Cutoff) || math.IsInf(r.Cutoff, 0) || r.Cutoff < 0 {
		return fmt.Errorf("cluster: racing cutoff must be a finite non-negative factor, got %g", r.Cutoff)
	}
	if r.Cutoff > 0 && r.Cutoff < 1 {
		return fmt.Errorf("cluster: racing cutoff %g lies below 1; no candidate can score under the lower bound", r.Cutoff)
	}
	return nil
}

const (
	// banditDecay is the multiplicative decay applied to every member's
	// win count when a batch commits, so the launch order tracks *recent*
	// winners.
	banditDecay = 0.5
	// banditExplore is the per-batch probability of promoting a uniformly
	// random member to the front of the launch order, so a workload shift
	// can unseat a long-time winner.
	banditExplore = 0.1
)

// raceState carries the bandit selector across the batches of one replay:
// decayed per-member win counts plus the seeded exploration source. All
// draws happen once per batch in the engine's single batch loop, so the
// stream is identical from replay to replay.
type raceState struct {
	wins   []float64
	rng    *rand.Rand
	src    *countingSource
	bandit bool
}

// newRaceState builds the per-replay bandit state for n portfolio members.
func newRaceState(n int, r Racing) *raceState {
	seed := r.Seed
	if seed == 0 {
		seed = 1
	}
	src := newCountingSource(seed)
	return &raceState{wins: make([]float64, n), rng: rand.New(src), src: src, bandit: r.Bandit}
}

// clone copies the bandit for a session fork. A *rand.Rand cannot be
// copied, so the fork rebuilds its source from the seed and replays the
// draws taken so far: its next draw is the one the original would take.
func (st *raceState) clone() *raceState {
	src := newCountingSource(st.src.seed)
	for src.draws < st.src.draws {
		src.Uint64()
	}
	return &raceState{wins: slices.Clone(st.wins), rng: rand.New(src), src: src, bandit: st.bandit}
}

// countingSource is the bandit's seeded source, counting its draws. Int63
// and Uint64 each advance the underlying generator by one step, so the
// count alone fixes the stream position.
type countingSource struct {
	src   rand.Source64
	seed  int64
	draws uint64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{src: rand.NewSource(seed).(rand.Source64), seed: seed}
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.seed, c.draws = seed, 0
}

// launchOrder returns the member indices in launch order: portfolio order
// when the bandit is off, otherwise decreasing recent-win score (ties keep
// portfolio order) with an occasional seeded exploration promotion.
func (st *raceState) launchOrder() []int {
	order := identityOrder(len(st.wins))
	if !st.bandit || len(order) < 2 {
		return order
	}
	sort.SliceStable(order, func(a, b int) bool { return st.wins[order[a]] > st.wins[order[b]] })
	if st.rng.Float64() < banditExplore {
		i := st.rng.Intn(len(order))
		promoted := order[i]
		copy(order[1:i+1], order[:i])
		order[0] = promoted
	}
	return order
}

// observeWin decays every member's score and credits the batch winner.
func (st *raceState) observeWin(winner int) {
	if !st.bandit {
		return
	}
	for i := range st.wins {
		st.wins[i] *= banditDecay
	}
	st.wins[winner]++
}

func identityOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// batchBounds holds the per-batch lower bounds used to normalize the
// combined objective and to decide racing qualification.
type batchBounds struct {
	cmax   float64
	minsum float64
}

// score evaluates a candidate schedule under the objective (lower is
// better). Degenerate lower bounds (zero, negative, NaN or infinite — e.g.
// a batch of zero-weight jobs has LB(sum wC) = 0) leave the corresponding
// criterion unnormalized instead of dividing by them, and any remaining
// non-finite combination collapses to +Inf, so scores always order totally
// and winner selection cannot depend on candidate order.
func (o Objective) score(inst *moldable.Instance, s *schedule.Schedule, lb batchBounds) float64 {
	switch o.Kind {
	case ObjectiveWeightedCompletion:
		return s.WeightedCompletion(inst)
	case ObjectiveCombined:
		cmax := normalize(s.Makespan(), lb.cmax)
		wc := normalize(s.WeightedCompletion(inst), lb.minsum)
		sc := o.Alpha*cmax + (1-o.Alpha)*wc
		if math.IsNaN(sc) {
			return math.Inf(1)
		}
		return sc
	default:
		return s.Makespan()
	}
}

// normalize divides the criterion by its lower bound when the bound is
// usable (finite and strictly positive) and returns the raw value
// otherwise.
func normalize(v, lb float64) float64 {
	if lb > 0 && !math.IsInf(lb, 1) {
		return v / lb
	}
	return v
}

// Candidate reports one portfolio member's outcome on a batch.
type Candidate struct {
	// Name is the algorithm's name.
	Name string `json:"Name"`
	// Score is the objective value (lower is better); NaN when the
	// algorithm failed, 0 when it was cut off.
	Score float64 `json:"Score"`
	// Makespan and WeightedCompletion are the raw criteria of the
	// candidate schedule.
	Makespan           float64 `json:"Makespan"`
	WeightedCompletion float64 `json:"WeightedCompletion"`
	// Cancelled marks a member cut off by racing: it comes after the
	// first qualifying candidate in launch order, so it never started.
	// Cancelled candidates never carry a score or an error.
	Cancelled bool `json:",omitempty"`
	// Err carries the algorithm's failure, if any: its error, or why its
	// plan failed Schedule.Validate. Only plans that could win are
	// validated: the committed one, any that scored better and failed, and
	// under racing every launched one. A losing plan is scored but not
	// checked, so it carries no validation error.
	Err error `json:"Err"`
}

// qualifies reports whether the candidate's objective value is provably
// within race.Cutoff of the batch lower bound. Nothing qualifies with
// racing off, and degenerate bounds never qualify: without a positive
// bound there is nothing to be provably close to.
func (r Racing) qualifies(obj Objective, c *Candidate, lb batchBounds) bool {
	if !r.enabled() || c.Err != nil || math.IsNaN(c.Score) {
		return false
	}
	switch obj.Kind {
	case ObjectiveMakespan:
		return lb.cmax > 0 && !math.IsInf(lb.cmax, 1) && c.Makespan <= r.Cutoff*lb.cmax
	case ObjectiveWeightedCompletion:
		return lb.minsum > 0 && !math.IsInf(lb.minsum, 1) && c.WeightedCompletion <= r.Cutoff*lb.minsum
	case ObjectiveCombined:
		// The normalized lower bound is exactly 1 when both bounds are
		// usable.
		return lb.cmax > 0 && !math.IsInf(lb.cmax, 1) && lb.minsum > 0 && !math.IsInf(lb.minsum, 1) &&
			c.Score <= r.Cutoff
	}
	return false
}

// runPortfolio schedules the batch with the portfolio, scores the
// candidates under the objective and returns the candidates (in portfolio
// order), the produced schedules, and the winner index. The winner is the
// valid candidate with the lowest score, ties broken by portfolio order.
// Only the committed plan needs checking: the candidates are validated
// (Schedule.Validate) in that order until the first valid one, so a plan
// that scores worse than the winner is scored but never checked, and one
// that scores better but fails is reported as failed.
//
// The members run one at a time in launch order: the bandit's order when
// racing with it, portfolio order otherwise. With racing on, the cut is
// the first launch position whose candidate qualifies under
// race.qualifies; members past the cut never start and are reported as
// cancelled. Under racing each launched plan is validated before it may
// cut, so a cut never rests on an invalid plan. With racing off nothing
// qualifies and every member runs to completion. Parallelism lives one
// level up, across a grid's shards.
//
// f is the batch: its instance plus the facts the members built by
// DefaultPortfolio share. The makespan lower bound the objective and the
// cut use is f.cmaxLB, the one the batch report carries. The two-shelf
// dual approximation is computed by the first member that asks for it, so
// a raced batch cut before DEMT and the list members never computes it.
// A member without a plan, such as a caller's own, runs its exported Run
// on the instance.
//
// A non-nil registry receives each member's wall-clock latency under its
// name, plus the racing win/cancel/cutoff counters and the race latency
// histogram when racing is enabled.
func runPortfolio(ctx context.Context, f *batchFacts, algos []Algorithm, obj Objective, reg *obs.Registry, race Racing, state *raceState) ([]Candidate, []*schedule.Schedule, int, error) {
	start := time.Now() //lint:allow nowallclock wall-clock feeds the obs metrics only, never a scheduling decision
	inst := f.inst
	cands := make([]Candidate, len(algos))
	scheds := make([]*schedule.Schedule, len(algos))
	racing := race.enabled() && len(algos) > 0

	lb := batchBounds{}
	if obj.Kind == ObjectiveCombined || (racing && obj.Kind == ObjectiveMakespan) {
		lb.cmax = f.cmaxLB()
	}
	if obj.Kind == ObjectiveCombined || (racing && obj.Kind == ObjectiveWeightedCompletion) {
		lb.minsum = lowerbound.MinsumSquashedArea(inst)
	}

	order := identityOrder(len(algos))
	if state != nil {
		order = state.launchOrder()
	}
	cut := false
	for _, i := range order {
		if cut {
			cands[i] = Candidate{Name: algos[i].Name, Cancelled: true}
			continue
		}
		memberStart := time.Now() //lint:allow nowallclock wall-clock feeds the obs metrics only, never a scheduling decision
		var s *schedule.Schedule
		var err error
		if algos[i].plan != nil {
			s, err = algos[i].plan(ctx, f)
		} else {
			s, err = algos[i].Run(ctx, inst)
		}
		if reg != nil {
			reg.Histogram("bicrit_portfolio_algorithm_seconds",
				"Wall-clock latency of one portfolio member scheduling one batch.",
				obs.TimeBuckets(), obs.L("algorithm", algos[i].Name)).Observe(time.Since(memberStart).Seconds()) //lint:allow nowallclock wall-clock feeds the obs metrics only, never a scheduling decision
		}
		if err == nil && racing {
			// A cut must never rest on an invalid plan.
			err = s.Validate(inst, nil)
		}
		if err != nil {
			cands[i] = failed(algos[i].Name, err)
			continue
		}
		cands[i] = Candidate{
			Name:               algos[i].Name,
			Score:              obj.score(inst, s, lb),
			Makespan:           s.Makespan(),
			WeightedCompletion: s.WeightedCompletion(inst),
		}
		scheds[i] = s
		cut = race.qualifies(obj, &cands[i], lb)
	}

	// A parent cancellation (serve drain, Ctrl-C) aborts the whole batch:
	// surface the context error instead of an all-algorithms-failed
	// aggregate.
	if err := ctx.Err(); err != nil {
		return cands, scheds, -1, fmt.Errorf("cluster: portfolio aborted: %w", err)
	}

	// Validate in score order until the first valid plan: the best of
	// the valid plans, as if every plan had been checked. Racing checked
	// every launched plan already.
	winner := best(cands, scheds)
	for !racing && winner >= 0 {
		err := scheds[winner].Validate(inst, nil)
		if err == nil {
			break
		}
		cands[winner], scheds[winner] = failed(algos[winner].Name, err), nil
		winner = best(cands, scheds)
	}
	if winner < 0 {
		err := fmt.Errorf("cluster: every portfolio algorithm failed on the batch")
		for i := range cands {
			if cands[i].Err != nil {
				err = fmt.Errorf("%w; %v", err, cands[i].Err)
			}
		}
		return cands, scheds, -1, err
	}
	if state != nil {
		state.observeWin(winner)
	}
	if racing && reg != nil {
		reg.Counter("bicrit_portfolio_wins_total",
			"Batches won per portfolio algorithm under racing.",
			obs.L("algorithm", algos[winner].Name)).Inc()
		cancelled := 0
		for i := range cands {
			if cands[i].Cancelled {
				cancelled++
				reg.Counter("bicrit_portfolio_cancelled_total",
					"Portfolio members cut off by the racing early cutoff.",
					obs.L("algorithm", algos[i].Name)).Inc()
			}
		}
		if cancelled > 0 {
			reg.Counter("bicrit_portfolio_cutoff_hits_total",
				"Batches where the racing cutoff fired and cancelled at least one member.").Inc()
		}
		reg.Histogram("bicrit_portfolio_race_seconds",
			"Wall-clock latency of one raced portfolio batch.",
			obs.TimeBuckets()).Observe(time.Since(start).Seconds()) //lint:allow nowallclock wall-clock feeds the obs metrics only, never a scheduling decision
	}
	return cands, scheds, winner, nil
}

// failed is the candidate of a member that returned an error or an
// invalid plan.
func failed(name string, err error) Candidate {
	return Candidate{Name: name, Score: math.NaN(), Err: fmt.Errorf("cluster: algorithm %s: %w", name, err)}
}

// best returns the candidate with a plan and the lowest score, ties broken
// by portfolio order, or -1 when none has a plan and a score.
func best(cands []Candidate, scheds []*schedule.Schedule) int {
	winner := -1
	for i := range cands {
		if scheds[i] == nil || math.IsNaN(cands[i].Score) {
			continue
		}
		if winner < 0 || cands[i].Score < cands[winner].Score {
			winner = i
		}
	}
	return winner
}
