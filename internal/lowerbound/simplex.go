package lowerbound

import (
	"fmt"
	"math"

	"bicriteria/internal/moldable"
)

// Status reports how the simplex run on the LP relaxation ended.
type Status int

const (
	// Optimal: an optimal basic solution was found.
	Optimal Status = iota
	// Infeasible: the intervals cannot hold every task.
	Infeasible
	// Unbounded: the objective can decrease without bound.
	Unbounded
	// IterationLimit: the solver gave up after too many pivots.
	IterationLimit
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// tolerance is the numerical tolerance on reduced costs and pivots.
const tolerance = 1e-9

// simplex is the dense tableau of the two-phase primal simplex method on
// the LP of section 3.3 over the boundaries b_0 = 0 < b_1 < ... < b_K.
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
//
// Columns are the x_{i,r} in task-major order, then one surplus column per
// coverage row, one slack column per area row and one artificial column
// per coverage row. Rows are the coverage rows, then the area rows; the
// starting basis is the artificials and the slacks.
type simplex struct {
	a        [][]float64 // constraint matrix, updated in place
	b        []float64   // right-hand side, kept non-negative
	obj      []float64   // reduced costs of the current phase
	cost     []float64   // the LP's objective; zero beyond the x columns
	basis    []int       // basic column of each row
	nx       int         // number of x columns
	artStart int         // first artificial column
	maxIter  int         // pivot limit of each phase
}

// newSimplex lays out the tableau of the LP on the given boundaries.
func newSimplex(inst *moldable.Instance, boundaries []float64) *simplex {
	type xcol struct {
		task, r int
		work    float64
	}
	n, k := len(inst.Tasks), len(boundaries)-1
	var xs []xcol
	for i := range inst.Tasks {
		for r := 0; r < k; r++ {
			if _, work, ok := inst.Tasks[i].MinWorkFitting(boundaries[r+1]); ok {
				xs = append(xs, xcol{i, r, work})
			}
		}
	}
	nx := len(xs)
	rows, cols := n+k, nx+n+k+n
	s := &simplex{
		a:        make([][]float64, rows),
		b:        make([]float64, rows),
		obj:      make([]float64, cols),
		cost:     make([]float64, cols),
		basis:    make([]int, rows),
		nx:       nx,
		artStart: nx + n + k,
		maxIter:  50 * (rows + cols),
	}
	cells := make([]float64, rows*cols)
	for i := range s.a {
		s.a[i] = cells[i*cols : (i+1)*cols : (i+1)*cols]
	}
	for j, x := range xs {
		s.a[x.task][j] = 1
		for r := x.r; r < k; r++ {
			s.a[n+r][j] = x.work
		}
		s.cost[j] = inst.Tasks[x.task].Weight * boundaries[x.r]
	}
	for i := 0; i < n; i++ {
		s.a[i][nx+i] = -1
		s.a[i][s.artStart+i] = 1
		s.b[i], s.basis[i] = 1, s.artStart+i
	}
	for r := 0; r < k; r++ {
		s.a[n+r][nx+n+r] = 1
		s.b[n+r], s.basis[n+r] = float64(inst.M)*boundaries[r+1], nx+n+r
	}
	return s
}

// solve runs both phases. It returns the status, the number of pivots and,
// when optimal, the objective value.
func (s *simplex) solve() (Status, int, float64) {
	// Phase 1: drive the artificial variables to zero.
	phase1 := make([]float64, len(s.obj))
	for j := s.artStart; j < len(phase1); j++ {
		phase1[j] = 1
	}
	s.price(phase1)
	status, iters := s.iterate(true)
	if status == IterationLimit {
		return status, iters, 0
	}
	infeasibility := 0.0 // the phase-1 objective: artificials left basic
	for i, j := range s.basis {
		if j >= s.artStart {
			infeasibility += s.b[i]
		}
	}
	if infeasibility > 1e-6 {
		return Infeasible, iters, 0
	}
	s.removeArtificialsFromBasis()

	// Phase 2: optimize the real objective.
	s.price(s.cost)
	status, more := s.iterate(false)
	iters += more
	if status != Optimal {
		return status, iters, 0
	}
	value := 0.0
	for j, x := range s.primal() {
		value += s.cost[j] * x
	}
	return Optimal, iters, value
}

// price installs a phase's costs and prices every column against the
// current basis: obj[j] = c_j - sum_i c_basis(i) * a[i][j].
func (s *simplex) price(cost []float64) {
	copy(s.obj, cost)
	for i, row := range s.a {
		cb := cost[s.basis[i]]
		if cb == 0 {
			continue
		}
		for j, v := range row {
			s.obj[j] -= cb * v
		}
	}
}

// iterate runs simplex pivots until optimality, unboundedness or the
// iteration limit. Artificial columns may enter the basis only during
// phase 1 (allowArtificial). After 64 degenerate pivots in a row, pricing
// switches from Dantzig's rule to Bland's to escape cycling.
func (s *simplex) iterate(allowArtificial bool) (Status, int) {
	degenerate := 0
	for iters := 0; iters < s.maxIter; iters++ {
		enter := s.entering(allowArtificial, degenerate > 64)
		if enter < 0 {
			return Optimal, iters
		}
		leave := s.leaving(enter)
		if leave < 0 {
			return Unbounded, iters
		}
		if s.b[leave]/s.a[leave][enter] < tolerance {
			degenerate++
		} else {
			degenerate = 0
		}
		s.pivot(leave, enter)
	}
	return IterationLimit, s.maxIter
}

// entering picks the entering column: Dantzig's most negative reduced cost,
// or the smallest eligible index under Bland's rule.
func (s *simplex) entering(allowArtificial, bland bool) int {
	limit := len(s.obj)
	if !allowArtificial {
		limit = s.artStart
	}
	best := -1
	bestVal := -tolerance
	for j, v := range s.obj[:limit] {
		if v < bestVal {
			if bland {
				return j
			}
			best, bestVal = j, v
		}
	}
	return best
}

// leaving performs the ratio test for the entering column, breaking ties
// on the smallest basic variable index (lexicographic safeguard).
func (s *simplex) leaving(enter int) int {
	best := -1
	bestRatio := math.Inf(1)
	for i, row := range s.a {
		pivot := row[enter]
		if pivot <= tolerance {
			continue
		}
		ratio := s.b[i] / pivot
		if ratio < bestRatio-tolerance || (ratio < bestRatio+tolerance && (best < 0 || s.basis[i] < s.basis[best])) {
			best, bestRatio = i, ratio
		}
	}
	return best
}

// pivot makes column enter basic in row leave.
func (s *simplex) pivot(leave, enter int) {
	rowL := s.a[leave]
	inv := 1 / rowL[enter]
	for j := range rowL {
		rowL[j] *= inv
	}
	s.b[leave] *= inv
	if s.b[leave] < 0 && s.b[leave] > -1e-11 {
		s.b[leave] = 0
	}
	rowL[enter] = 1 // kill round-off on the pivot element

	for i, row := range s.a {
		factor := row[enter]
		if i == leave || factor == 0 {
			continue
		}
		for j, v := range rowL {
			row[j] -= factor * v
		}
		row[enter] = 0
		s.b[i] -= factor * s.b[leave]
		if s.b[i] < 0 && s.b[i] > -1e-11 {
			s.b[i] = 0
		}
	}
	if factor := s.obj[enter]; factor != 0 {
		for j, v := range rowL {
			s.obj[j] -= factor * v
		}
		s.obj[enter] = 0
	}
	s.basis[leave] = enter
}

// removeArtificialsFromBasis pivots zero-valued artificial variables out of
// the basis after phase 1; rows whose artificial cannot be pivoted out are
// redundant and dropped from the tableau.
func (s *simplex) removeArtificialsFromBasis() {
	for i, row := range s.a {
		if s.basis[i] < s.artStart {
			continue
		}
		for j, v := range row[:s.artStart] {
			if math.Abs(v) > tolerance {
				s.pivot(i, j)
				break
			}
		}
	}
	kept := 0
	for i := range s.a {
		if s.basis[i] < s.artStart {
			s.a[kept], s.b[kept], s.basis[kept] = s.a[i], s.b[i], s.basis[i]
			kept++
		}
	}
	s.a, s.b, s.basis = s.a[:kept], s.b[:kept], s.basis[:kept]
}

// primal reads the values of the x columns from the current basis.
func (s *simplex) primal() []float64 {
	x := make([]float64, s.nx)
	for i, j := range s.basis {
		if j < s.nx {
			x[j] = s.b[i]
		}
	}
	return x
}
