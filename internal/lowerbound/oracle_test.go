package lowerbound_test

import (
	"testing"

	"bicriteria/internal/core"
	"bicriteria/internal/exact"
	"bicriteria/internal/lowerbound"
	"bicriteria/internal/moldable"
	"bicriteria/internal/workload"
)

// relTol is the relative slack allowed between a bound or a schedule and
// the proven optimum.
const relTol = 1e-9

// optima returns the exact optimal makespan and weighted sum of completion
// times of a tiny instance.
func optima(t *testing.T, inst *moldable.Instance) (cmax, minsum float64) {
	t.Helper()
	c, err := exact.Solve(inst, exact.Makespan, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, err := exact.Solve(inst, exact.WeightedCompletion, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c.Value, w.Value
}

// checkBounds fails when a lower bound of the instance exceeds the optimum.
func checkBounds(t *testing.T, inst *moldable.Instance, optCmax, optMinsum float64) {
	t.Helper()
	if lb := lowerbound.Makespan(inst); lb > optCmax*(1+relTol) {
		t.Errorf("makespan bound %g exceeds the optimum %g", lb, optCmax)
	}
	if lb := lowerbound.MinsumSquashedArea(inst); lb > optMinsum*(1+relTol) {
		t.Errorf("squashed-area bound %g exceeds the optimum %g", lb, optMinsum)
	}
	b, err := lowerbound.MinsumLP(inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.LPValue > optMinsum*(1+relTol) {
		t.Errorf("LP bound %g (%v) exceeds the optimum %g", b.LPValue, b.Status, optMinsum)
	}
}

// TestBoundsAgainstExactOptimum uses the exhaustive search of
// internal/exact as the oracle on every family at m, n <= 4: the lower
// bounds never exceed the optimum, and DEMT never beats it.
func TestBoundsAgainstExactOptimum(t *testing.T) {
	for _, kind := range workload.Kinds() {
		for m := 1; m <= 4; m++ {
			for n := 1; n <= 4; n++ {
				for seed := int64(1); seed <= 3; seed++ {
					inst, err := workload.Generate(workload.Config{Kind: kind, M: m, N: n, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					optCmax, optMinsum := optima(t, inst)
					checkBounds(t, inst, optCmax, optMinsum)
					demt, err := core.ScheduleContext(t.Context(), inst, nil)
					if err != nil {
						t.Fatal(err)
					}
					if c := demt.Schedule.Makespan(); c < optCmax*(1-relTol) {
						t.Errorf("%s m=%d n=%d seed=%d: DEMT makespan %g beats the optimum %g", kind, m, n, seed, c, optCmax)
					}
					if w := demt.Schedule.WeightedCompletion(inst); w < optMinsum*(1-relTol) {
						t.Errorf("%s m=%d n=%d seed=%d: DEMT minsum %g beats the optimum %g", kind, m, n, seed, w, optMinsum)
					}
				}
			}
		}
	}
}

// FuzzMinsumLPBelowOptimum decodes the input into a machine of up to 4
// processors and up to 4 monotonic moldable tasks, and requires the LP and
// makespan bounds to stay below the exact optima. The first byte is m-1
// and the second n-1, both mod 4; each task then reads a weight byte (the
// weight is the byte mod 8, so zero weights occur), a byte for p(1) in
// quarters plus a quarter, a byte for its allocation count mod m plus 1,
// and one byte per further allocation k: p(k) = p(k-1)*((k-1)+f)/k with
// frac the byte over 255, so times never grow and works never shrink. Missing
// bytes read as zero.
func FuzzMinsumLPBelowOptimum(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		m := 1 + next()%4
		tasks := make([]moldable.Task, 1+next()%4)
		for i := range tasks {
			weight := float64(next() % 8)
			times := []float64{float64(1+next()) / 4}
			for k, count := 2, 1+next()%m; k <= count; k++ {
				frac := float64(next()) / 255
				times = append(times, times[k-2]*(float64(k-1)+frac)/float64(k))
			}
			tasks[i] = moldable.Task{ID: i, Weight: weight, Times: times}
		}
		inst := moldable.NewInstance(m, tasks)
		optCmax, optMinsum := optima(t, inst)
		checkBounds(t, inst, optCmax, optMinsum)
	})
}
