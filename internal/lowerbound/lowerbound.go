// Package lowerbound computes lower bounds on the two criteria studied by
// the paper, used as the reference values of all experiments:
//
//   - Makespan: the dual-approximation bound of section 3.3 ("for Cmax a good
//     lower bound may easily be obtained by dual approximation");
//
//   - Weighted minsum: the LP relaxation of the interval ILP of section 3.3
//     (solved with the in-repo simplex), plus a cheap combinatorial
//     "squashed-area" bound used when the LP is too expensive.
package lowerbound

import (
	"fmt"
	"math"
	"sort"

	"bicriteria/internal/dualapprox"
	"bicriteria/internal/lp"
	"bicriteria/internal/moldable"
)

// Makespan returns a valid lower bound on the optimal makespan.
func Makespan(inst *moldable.Instance) float64 {
	return dualapprox.MakespanLowerBound(inst)
}

// MinsumOptions tunes the LP lower bound.
type MinsumOptions struct {
	// CmaxEstimate anchors the geometric time intervals (the paper uses the
	// approximate C*max of the dual approximation). When zero, the makespan
	// lower bound of the instance is used.
	CmaxEstimate float64
	// LP carries options for the simplex solver.
	LP *lp.Options
}

// MinsumBound is the result of the LP lower bound.
type MinsumBound struct {
	// Value is the lower bound on sum(w_i C_i): the maximum of the LP
	// relaxation value and the squashed-area bound.
	Value float64
	// LPValue is the raw objective of the LP relaxation of section 3.3
	// before taking the maximum with the squashed-area bound.
	LPValue float64
	// Boundaries holds the interval boundaries b_0 < b_1 < ... used by the
	// formulation (b_0 = 0).
	Boundaries []float64
	// Status is the LP solver status.
	Status lp.Status
	// Iterations is the number of simplex pivots used.
	Iterations int
}

// intervalSet builds the geometric interval boundaries of section 3.3:
// t_j = C*max / 2^(K-j), j = 0..K+1, preceded by 0 and extended by further
// doublings until the horizon (the stacked sequential schedule) is covered,
// so that every completion time of some optimal schedule falls in an
// interval and the relaxation stays a valid bound.
func intervalSet(inst *moldable.Instance, cmax float64) []float64 {
	tmin := inst.MinProcessingTime()
	if cmax < tmin {
		cmax = tmin
	}
	k := int(math.Floor(math.Log2(cmax / tmin)))
	if k < 0 {
		k = 0
	}
	horizon := 0.0
	for i := range inst.Tasks {
		p, _ := inst.Tasks[i].MinTime()
		horizon += p
	}
	boundaries := []float64{0}
	for j := 0; j <= k+1; j++ {
		boundaries = append(boundaries, cmax/math.Pow(2, float64(k-j)))
	}
	for boundaries[len(boundaries)-1] < horizon {
		boundaries = append(boundaries, 2*boundaries[len(boundaries)-1])
	}
	return boundaries
}

// buildProblem creates the LP of section 3.3 on the given boundaries.
//
// Variables: x_{i,r} = task i completes in interval (b_r, b_{r+1}], created
// only when the task admits an allocation finishing within b_{r+1}. The
// objective coefficient of x_{i,r} is w_i * b_r (the interval's lower end,
// an underestimate of the completion time). Constraints:
//
//	for every task i:      sum_r x_{i,r} >= 1
//	for every interval r:  sum_{l<=r} sum_i S_{i,l} x_{i,l} <= m * b_{r+1}
//
// where S_{i,l} is the minimal work of task i among allocations finishing
// within b_{l+1}. The x <= 1 bounds of the paper are omitted: with
// non-negative costs and these constraint senses they are never active at
// an optimum, so the bound value is unchanged.
func buildProblem(inst *moldable.Instance, boundaries []float64) (*lp.Problem, [][]int) {
	nIntervals := len(boundaries) - 1
	varIndex := make([][]int, len(inst.Tasks))
	nVars := 0
	for i := range inst.Tasks {
		varIndex[i] = make([]int, nIntervals)
		for r := 0; r < nIntervals; r++ {
			varIndex[i][r] = -1
			if _, _, ok := inst.Tasks[i].MinWorkFitting(boundaries[r+1]); ok {
				varIndex[i][r] = nVars
				nVars++
			}
		}
	}
	p := lp.NewProblem(nVars)
	for i := range inst.Tasks {
		t := &inst.Tasks[i]
		for r := 0; r < nIntervals; r++ {
			if varIndex[i][r] >= 0 {
				p.SetObjective(varIndex[i][r], t.Weight*boundaries[r])
			}
		}
	}
	// Coverage constraints.
	for i := range inst.Tasks {
		coeffs := make([]float64, nVars)
		any := false
		for r := 0; r < nIntervals; r++ {
			if varIndex[i][r] >= 0 {
				coeffs[varIndex[i][r]] = 1
				any = true
			}
		}
		if any {
			p.AddConstraint(coeffs, lp.GE, 1)
		}
	}
	// Cumulative area constraints.
	for r := 0; r < nIntervals; r++ {
		coeffs := make([]float64, nVars)
		for i := range inst.Tasks {
			t := &inst.Tasks[i]
			for l := 0; l <= r; l++ {
				if varIndex[i][l] < 0 {
					continue
				}
				_, work, _ := t.MinWorkFitting(boundaries[l+1])
				coeffs[varIndex[i][l]] = work
			}
		}
		p.AddConstraint(coeffs, lp.LE, float64(inst.M)*boundaries[r+1])
	}
	return p, varIndex
}

// MinsumLP computes the paper's LP-relaxation lower bound on the weighted
// sum of completion times.
func MinsumLP(inst *moldable.Instance, opts *MinsumOptions) (*MinsumBound, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	cmax := 0.0
	var lpOpts *lp.Options
	if opts != nil {
		cmax = opts.CmaxEstimate
		lpOpts = opts.LP
	}
	if cmax <= 0 {
		cmax = Makespan(inst)
	}
	boundaries := intervalSet(inst, cmax)
	problem, _ := buildProblem(inst, boundaries)
	sol, err := lp.Solve(problem, lpOpts)
	if err != nil {
		return nil, err
	}
	bound := &MinsumBound{Boundaries: boundaries, Status: sol.Status, Iterations: sol.Iterations}
	switch sol.Status {
	case lp.Optimal:
		bound.Value = sol.Objective
		bound.LPValue = sol.Objective
	case lp.Infeasible:
		return nil, fmt.Errorf("lowerbound: LP relaxation infeasible, the interval horizon is too short")
	default:
		// Fall back to the combinatorial bound rather than reporting an
		// unusable value.
		bound.Value = MinsumSquashedArea(inst)
	}
	// The LP bound can never be worse than the trivial per-task bound; take
	// the max with the combinatorial bound for robustness against numerical
	// slack in the simplex.
	if sq := MinsumSquashedArea(inst); sq > bound.Value {
		bound.Value = sq
	}
	return bound, nil
}

// MinsumSquashedArea is a fast combinatorial lower bound on sum(w_i C_i):
// the maximum of
//
//   - the per-task bound sum_i w_i * pmin_i (no task can finish before its
//     fastest processing time), and
//
//   - the squashed-area bound: sorting tasks by Smith's ratio (minimal work
//     over weight), the completion of the i-th task in any schedule is at
//     least the prefix sum of minimal works divided by m.
func MinsumSquashedArea(inst *moldable.Instance) float64 {
	perTask := 0.0
	type entry struct {
		work, weight float64
	}
	entries := make([]entry, 0, len(inst.Tasks))
	for i := range inst.Tasks {
		t := &inst.Tasks[i]
		pmin, _ := t.MinTime()
		perTask += t.Weight * pmin
		w, _ := t.MinWork()
		entries = append(entries, entry{work: w, weight: t.Weight})
	}
	sort.Slice(entries, func(a, b int) bool {
		// Smith's rule: increasing work/weight; tasks with zero weight go
		// last (they do not contribute to the objective).
		wa, wb := entries[a], entries[b]
		return wa.work*wb.weight < wb.work*wa.weight
	})
	prefix := 0.0
	squashed := 0.0
	for _, e := range entries {
		prefix += e.work
		squashed += e.weight * prefix / float64(inst.M)
	}
	if perTask > squashed {
		return perTask
	}
	return squashed
}
