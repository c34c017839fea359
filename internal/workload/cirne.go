package workload

import (
	"math"
	"math/rand"
)

// This file implements the Cirne–Berman style moldable-job model used for
// Figure 6 of the paper.
//
// Substitution note: the original model of Cirne & Berman
// ("A model for moldable supercomputer jobs", IPDPS 2001) is fitted on a
// user survey we do not have. We reproduce its structure: the sequential
// time is drawn from the paper's uniform(1,10) model (as stated in §4.1),
// and the shape of the speedup curve follows Downey's parallel speedup
// model, which is the model Cirne–Berman build on, with
//
//   - average parallelism A drawn log-uniformly in [1, m] (jobs with small A
//     barely benefit from more processors, jobs with large A scale almost
//     linearly), and
//   - curve parameter sigma drawn uniformly in [0, 2].
//
// This yields a heterogeneous mix of scalability profiles, which is the
// property the experiment relies on.

// DowneySpeedup returns Downey's speedup S(n) for a job with average
// parallelism a >= 1 and curvature sigma >= 0 on n >= 1 processors.
//
// The model is piecewise:
//
//	sigma <= 1:
//	  S(n) = a*n / (a + sigma*(n-1)/2)              for 1 <= n <= a
//	  S(n) = a*n / (sigma*(a-1/2) + n*(1-sigma/2))  for a <= n <= 2a-1
//	  S(n) = a                                      for n >= 2a-1
//	sigma >= 1:
//	  S(n) = n*a*(sigma+1) / (sigma*(n+a-1) + a)    for 1 <= n <= a+a*sigma-sigma
//	  S(n) = a                                      otherwise
func DowneySpeedup(a, sigma float64, n int) float64 {
	if n < 1 {
		return 0
	}
	if a < 1 {
		a = 1
	}
	if sigma < 0 {
		sigma = 0
	}
	nf := float64(n)
	var s float64
	if sigma <= 1 {
		switch {
		case nf <= a:
			s = a * nf / (a + sigma*(nf-1)/2)
		case nf <= 2*a-1:
			s = a * nf / (sigma*(a-0.5) + nf*(1-sigma/2))
		default:
			s = a
		}
	} else {
		if nf <= a+a*sigma-sigma {
			s = nf * a * (sigma + 1) / (sigma*(nf+a-1) + a)
		} else {
			s = a
		}
	}
	// A speedup can never exceed the number of processors nor drop below 1.
	if s > nf {
		s = nf
	}
	if s < 1 {
		s = 1
	}
	return s
}

// cirneTimes derives the moldable processing-time vector of a task from its
// sequential time using a Downey speedup curve with randomly drawn
// parameters. Monotony is enforced to absorb floating-point noise and the
// plateaus of the model.
func cirneTimes(r *rand.Rand, seq float64, m int) []float64 {
	// Average parallelism: log-uniform over [1, m].
	logA := r.Float64() * math.Log(float64(m))
	a := math.Exp(logA)
	sigma := 2 * r.Float64()
	times := make([]float64, m)
	for k := 1; k <= m; k++ {
		times[k-1] = seq / DowneySpeedup(a, sigma, k)
	}
	EnforceMonotony(times)
	return times
}
