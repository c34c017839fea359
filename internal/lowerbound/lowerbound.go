// Package lowerbound computes lower bounds on the two criteria studied by
// the paper, used as the reference values of all experiments:
//
//   - Makespan: the dual-approximation bound of section 3.3 ("for Cmax a good
//     lower bound may easily be obtained by dual approximation");
//
//   - Weighted minsum: the LP relaxation of the interval ILP of section 3.3
//     (solved by this package's dense two-phase simplex, laid out for that
//     one LP), plus a cheap combinatorial "squashed-area" bound used when
//     the LP is too expensive.
package lowerbound

import (
	"fmt"
	"math"
	"sort"

	"bicriteria/internal/dualapprox"
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
	// lower bound of the instance is used; it must be finite and
	// non-negative.
	CmaxEstimate float64
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
	Status Status
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

// MinsumLP computes the paper's LP-relaxation lower bound on the weighted
// sum of completion times.
func MinsumLP(inst *moldable.Instance, opts *MinsumOptions) (*MinsumBound, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	cmax := 0.0
	if opts != nil {
		cmax = opts.CmaxEstimate
	}
	if math.IsNaN(cmax) || math.IsInf(cmax, 0) || cmax < 0 {
		return nil, fmt.Errorf("lowerbound: CmaxEstimate must be finite and non-negative, got %g", cmax)
	}
	if cmax == 0 {
		cmax = Makespan(inst)
	}
	boundaries := intervalSet(inst, cmax)
	status, iters, value := newSimplex(inst, boundaries).solve()
	bound := &MinsumBound{Boundaries: boundaries, Status: status, Iterations: iters}
	switch status {
	case Optimal:
		bound.Value = value
		bound.LPValue = value
	case Infeasible:
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
