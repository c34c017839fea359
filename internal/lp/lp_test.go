package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSenseAndStatusStrings(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" {
		t.Fatalf("sense strings wrong")
	}
	if Sense(9).String() == "" || Status(9).String() == "" {
		t.Fatalf("unknown enums should still print")
	}
	for _, s := range []Status{Optimal, Infeasible, Unbounded, IterationLimit} {
		if s.String() == "" {
			t.Fatalf("status %d has empty string", s)
		}
	}
}

func TestValidateRejectsMalformedProblems(t *testing.T) {
	p := NewProblem(2)
	p.Objective = []float64{1} // wrong length
	if err := p.Validate(); err == nil {
		t.Fatalf("objective length mismatch must fail")
	}
	p = NewProblem(0)
	if err := p.Validate(); err == nil {
		t.Fatalf("zero variables must fail")
	}
	p = NewProblem(1)
	p.SetObjective(0, math.NaN())
	if err := p.Validate(); err == nil {
		t.Fatalf("NaN objective must fail")
	}
	p = NewProblem(1)
	p.AddConstraint([]float64{1, 2}, LE, 1)
	if err := p.Validate(); err == nil {
		t.Fatalf("too many coefficients must fail")
	}
	p = NewProblem(1)
	p.AddConstraint([]float64{1}, Sense(7), 1)
	if err := p.Validate(); err == nil {
		t.Fatalf("unknown sense must fail")
	}
	p = NewProblem(1)
	p.AddConstraint([]float64{math.Inf(1)}, LE, 1)
	if err := p.Validate(); err == nil {
		t.Fatalf("Inf coefficient must fail")
	}
	p = NewProblem(1)
	p.AddConstraint([]float64{1}, LE, math.NaN())
	if err := p.Validate(); err == nil {
		t.Fatalf("NaN RHS must fail")
	}
}

func TestSolveSimpleMaximizationAsMinimization(t *testing.T) {
	// max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  =>  x=2, y=6, obj 36.
	p := NewProblem(2)
	p.SetObjective(0, -3)
	p.SetObjective(1, -5)
	p.AddConstraint([]float64{1, 0}, LE, 4)
	p.AddConstraint([]float64{0, 2}, LE, 12)
	p.AddConstraint([]float64{3, 2}, LE, 18)
	sol, err := Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if !approx(sol.Objective, -36, 1e-6) {
		t.Fatalf("objective = %g, want -36", sol.Objective)
	}
	if !approx(sol.X[0], 2, 1e-6) || !approx(sol.X[1], 6, 1e-6) {
		t.Fatalf("x = %v, want [2 6]", sol.X)
	}
}

func TestSolveWithGEAndEQConstraints(t *testing.T) {
	// min 2x + 3y  s.t. x + y >= 4, x = 1  =>  x=1, y=3, obj 11.
	p := NewProblem(2)
	p.SetObjective(0, 2)
	p.SetObjective(1, 3)
	p.AddConstraint([]float64{1, 1}, GE, 4)
	p.AddConstraint([]float64{1, 0}, EQ, 1)
	sol, err := Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.Objective, 11, 1e-6) {
		t.Fatalf("got %v obj %g, want optimal 11", sol.Status, sol.Objective)
	}
}

func TestSolveNegativeRHSNormalization(t *testing.T) {
	// min x  s.t. -x <= -3   (i.e. x >= 3)  =>  x=3.
	p := NewProblem(1)
	p.SetObjective(0, 1)
	p.AddConstraint([]float64{-1}, LE, -3)
	sol, err := Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.X[0], 3, 1e-6) {
		t.Fatalf("got %v x=%v", sol.Status, sol.X)
	}
}

func TestSolveInfeasible(t *testing.T) {
	// x <= 1 and x >= 3 cannot hold together.
	p := NewProblem(1)
	p.SetObjective(0, 1)
	p.AddConstraint([]float64{1}, LE, 1)
	p.AddConstraint([]float64{1}, GE, 3)
	sol, err := Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestSolveUnbounded(t *testing.T) {
	// min -x with only x >= 1: objective goes to -inf.
	p := NewProblem(1)
	p.SetObjective(0, -1)
	p.AddConstraint([]float64{1}, GE, 1)
	sol, err := Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestSolveDegenerateAndRedundant(t *testing.T) {
	// Redundant equality pair and degenerate vertex.
	p := NewProblem(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 1)
	p.AddConstraint([]float64{1, 1}, GE, 2)
	p.AddConstraint([]float64{2, 2}, GE, 4) // redundant copy
	p.AddConstraint([]float64{1, 0}, LE, 2)
	p.AddConstraint([]float64{0, 1}, LE, 2)
	sol, err := Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.Objective, 2, 1e-6) {
		t.Fatalf("got %v obj %g, want optimal 2", sol.Status, sol.Objective)
	}
}

func TestSolveEqualityOnlySystem(t *testing.T) {
	// x + y = 5, x - y = 1 => x=3, y=2; minimize x.
	p := NewProblem(2)
	p.SetObjective(0, 1)
	p.AddConstraint([]float64{1, 1}, EQ, 5)
	p.AddConstraint([]float64{1, -1}, EQ, 1)
	sol, err := Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || !approx(sol.X[0], 3, 1e-6) || !approx(sol.X[1], 2, 1e-6) {
		t.Fatalf("got %v x=%v", sol.Status, sol.X)
	}
}

func TestSolveIterationLimit(t *testing.T) {
	p := NewProblem(3)
	for j := 0; j < 3; j++ {
		p.SetObjective(j, -1)
	}
	p.AddConstraint([]float64{1, 1, 1}, LE, 10)
	sol, err := Solve(p, &Options{MaxIterations: 0}) // 0 means default; use 1 explicitly below
	if err != nil || sol.Status != Optimal {
		t.Fatalf("default iteration limit should solve: %v %v", sol, err)
	}
	sol, err = Solve(p, &Options{MaxIterations: -1})
	if err != nil || sol.Status != Optimal {
		t.Fatalf("negative limit treated as default should solve: %v %v", sol, err)
	}
}

// bruteForceLP evaluates a small LP by enumerating basic solutions built
// from all pairs of tight constraints (2-variable problems only).
func bruteForceLP2(p *Problem) (float64, bool) {
	type line struct{ a, b, c float64 } // a*x + b*y = c
	var lines []line
	for _, cons := range p.Constraints {
		a, b := 0.0, 0.0
		if len(cons.Coeffs) > 0 {
			a = cons.Coeffs[0]
		}
		if len(cons.Coeffs) > 1 {
			b = cons.Coeffs[1]
		}
		lines = append(lines, line{a, b, cons.RHS})
	}
	// Axis constraints x=0, y=0.
	lines = append(lines, line{1, 0, 0}, line{0, 1, 0})
	feasible := func(x, y float64) bool {
		if x < -1e-7 || y < -1e-7 {
			return false
		}
		for _, cons := range p.Constraints {
			a, b := 0.0, 0.0
			if len(cons.Coeffs) > 0 {
				a = cons.Coeffs[0]
			}
			if len(cons.Coeffs) > 1 {
				b = cons.Coeffs[1]
			}
			v := a*x + b*y
			switch cons.Sense {
			case LE:
				if v > cons.RHS+1e-7 {
					return false
				}
			case GE:
				if v < cons.RHS-1e-7 {
					return false
				}
			case EQ:
				if math.Abs(v-cons.RHS) > 1e-7 {
					return false
				}
			}
		}
		return true
	}
	best := math.Inf(1)
	found := false
	for i := 0; i < len(lines); i++ {
		for j := i + 1; j < len(lines); j++ {
			l1, l2 := lines[i], lines[j]
			det := l1.a*l2.b - l2.a*l1.b
			if math.Abs(det) < 1e-12 {
				continue
			}
			x := (l1.c*l2.b - l2.c*l1.b) / det
			y := (l1.a*l2.c - l2.a*l1.c) / det
			if feasible(x, y) {
				found = true
				obj := p.Objective[0]*x + p.Objective[1]*y
				if obj < best {
					best = obj
				}
			}
		}
	}
	return best, found
}

func TestPropertySimplexMatchesVertexEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := NewProblem(2)
		p.SetObjective(0, float64(r.Intn(11)))
		p.SetObjective(1, float64(r.Intn(11)))
		nCons := 2 + r.Intn(4)
		for i := 0; i < nCons; i++ {
			coeffs := []float64{float64(r.Intn(7)), float64(r.Intn(7))}
			sense := LE
			rhs := float64(1 + r.Intn(20))
			if r.Intn(3) == 0 && coeffs[0]+coeffs[1] > 0 {
				sense = GE
				rhs = float64(r.Intn(8))
			}
			p.AddConstraint(coeffs, sense, rhs)
		}
		// Keep the region bounded so vertex enumeration is exhaustive.
		p.AddConstraint([]float64{1, 0}, LE, 50)
		p.AddConstraint([]float64{0, 1}, LE, 50)

		sol, err := Solve(p, nil)
		if err != nil {
			return false
		}
		want, feasible := bruteForceLP2(p)
		if !feasible {
			return sol.Status == Infeasible
		}
		if sol.Status != Optimal {
			return false
		}
		return approx(sol.Objective, want, 1e-5*(1+math.Abs(want)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeSparseCoveringProblem(t *testing.T) {
	// A structured problem similar in shape to the minsum lower bound:
	// n tasks x K intervals, coverage >= 1 per task, capacity per interval.
	n, K := 60, 6
	p := NewProblem(n * K)
	for i := 0; i < n; i++ {
		cover := make([]float64, n*K)
		for j := 0; j < K; j++ {
			p.SetObjective(i*K+j, float64(j+1)*(1+float64(i%7)))
			cover[i*K+j] = 1
		}
		p.AddConstraint(cover, GE, 1)
	}
	for j := 0; j < K; j++ {
		cap := make([]float64, n*K)
		for i := 0; i < n; i++ {
			for l := 0; l <= j; l++ {
				cap[i*K+l] = 1 + float64(i%3)
			}
		}
		p.AddConstraint(cap, LE, float64((j+1)*25))
	}
	sol, err := Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.Objective <= 0 {
		t.Fatalf("objective should be positive, got %g", sol.Objective)
	}
	// Feasibility check of the returned point.
	for i, cons := range p.Constraints {
		v := 0.0
		for j, c := range cons.Coeffs {
			v += c * sol.X[j]
		}
		switch cons.Sense {
		case GE:
			if v < cons.RHS-1e-6 {
				t.Fatalf("constraint %d violated: %g < %g", i, v, cons.RHS)
			}
		case LE:
			if v > cons.RHS+1e-6 {
				t.Fatalf("constraint %d violated: %g > %g", i, v, cons.RHS)
			}
		}
	}
}
