package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestRatioAggregator(t *testing.T) {
	var agg RatioAggregator
	if err := agg.Add(4, 2); err != nil {
		t.Fatal(err)
	}
	if err := agg.Add(9, 3); err != nil {
		t.Fatal(err)
	}
	if agg.Count() != 2 {
		t.Fatalf("count = %d", agg.Count())
	}
	r := agg.Result()
	// Ratio of sums: 13/5 = 2.6; per-run ratios 2 and 3.
	if math.Abs(r.Mean-2.6) > 1e-12 || r.Min != 2 || r.Max != 3 || r.Count != 2 {
		t.Fatalf("ratio wrong: %+v", r)
	}
	if !strings.Contains(r.String(), "2.600") {
		t.Fatalf("String() = %q", r.String())
	}
}

func TestRatioAggregatorRejectsInvalid(t *testing.T) {
	var agg RatioAggregator
	if err := agg.Add(1, 0); err == nil {
		t.Fatalf("zero reference must fail")
	}
	if err := agg.Add(1, -2); err == nil {
		t.Fatalf("negative reference must fail")
	}
	if err := agg.Add(math.NaN(), 1); err == nil {
		t.Fatalf("NaN value must fail")
	}
	if err := agg.Add(-1, 1); err == nil {
		t.Fatalf("negative value must fail")
	}
	if agg.Count() != 0 {
		t.Fatalf("rejected observations must not be recorded")
	}
	if r := agg.Result(); r.Count != 0 || r.Mean != 0 {
		t.Fatalf("empty aggregator should give zero result: %+v", r)
	}
}

func TestPropertyRatioOfSumsBetweenMinAndMax(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var agg RatioAggregator
		for i, b := range raw {
			value := float64(b%40) + 1
			ref := float64(i%7) + 1
			if err := agg.Add(value, ref); err != nil {
				return false
			}
		}
		r := agg.Result()
		return r.Mean >= r.Min-1e-12 && r.Mean <= r.Max+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySummaryInvariants(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		values := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, b := range raw {
			values[i] = float64(b)
			lo, hi = math.Min(lo, values[i]), math.Max(hi, values[i])
		}
		s := TailSummary(values)
		return lo <= s.Mean+1e-9 && s.Mean <= hi+1e-9 &&
			lo <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= hi &&
			s.P95 == Percentile(values, 95)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("empty sample percentile %g, want 0", got)
	}
	values := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, tc := range []struct {
		p    float64
		want float64
	}{
		{-10, 1}, {0, 1}, {20, 1}, {40, 2}, {50, 3}, {60, 3}, {80, 4}, {95, 5}, {100, 5}, {150, 5},
	} {
		if got := Percentile(values, tc.p); got != tc.want {
			t.Fatalf("P%g of %v = %g, want %g", tc.p, values, got, tc.want)
		}
	}
	// The input must not be reordered.
	if values[0] != 5 || values[4] != 3 {
		t.Fatalf("Percentile mutated its input: %v", values)
	}
	single := []float64{7}
	for _, p := range []float64{0, 50, 99, 100} {
		if got := Percentile(single, p); got != 7 {
			t.Fatalf("P%g of a singleton = %g, want 7", p, got)
		}
	}
}

func TestTailSummary(t *testing.T) {
	if got := TailSummary(nil); got != (Tail{}) {
		t.Fatalf("empty sample digest %+v, want zero", got)
	}
	values := []float64{5, 1, 4, 2, 3}
	got := TailSummary(values)
	want := Tail{Mean: 3, P50: 3, P95: 5, P99: 5}
	if got != want {
		t.Fatalf("TailSummary(%v) = %+v, want %+v", values, got, want)
	}
	// Must agree with Percentile and not reorder the input.
	for _, p := range []float64{50, 95, 99} {
		if Percentile(values, p) != map[float64]float64{50: got.P50, 95: got.P95, 99: got.P99}[p] {
			t.Fatalf("TailSummary disagrees with Percentile at p=%g", p)
		}
	}
	if values[0] != 5 {
		t.Fatalf("TailSummary mutated its input: %v", values)
	}
	// TailOfSorted on a sorted copy gives the same digest.
	sorted := []float64{1, 2, 3, 4, 5}
	if s := TailOfSorted(sorted); s != want {
		t.Fatalf("TailOfSorted = %+v, want %+v", s, want)
	}
	if s := TailOfSorted(nil); s != (Tail{}) {
		t.Fatalf("TailOfSorted(nil) = %+v, want zero", s)
	}
}

// TestPercentileEdgeCases pins the documented contract on degenerate
// inputs: empty samples, single elements and out-of-range p values.
func TestPercentileEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		values []float64
		p      float64
		want   float64
	}{
		{"empty p50", nil, 50, 0},
		{"empty p0", []float64{}, 0, 0},
		{"empty p200", []float64{}, 200, 0},
		{"single p0", []float64{7}, 0, 7},
		{"single p50", []float64{7}, 50, 7},
		{"single p100", []float64{7}, 100, 7},
		{"single clamped low", []float64{7}, -10, 7},
		{"single clamped high", []float64{7}, 400, 7},
		{"pair p50", []float64{1, 9}, 50, 1},
		{"pair p51", []float64{1, 9}, 51, 9},
		{"clamp low is min", []float64{3, 1, 2}, -5, 1},
		{"clamp high is max", []float64{3, 1, 2}, 150, 3},
		{"tiny p is min", []float64{3, 1, 2}, 1e-12, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Percentile(tc.values, tc.p); got != tc.want {
				t.Fatalf("Percentile(%v, %g) = %g, want %g", tc.values, tc.p, got, tc.want)
			}
		})
	}
	// The input must never be reordered.
	in := []float64{3, 1, 2}
	Percentile(in, 50)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("Percentile reordered its input: %v", in)
	}
}

// TestTailSummaryEdgeCases pins the zero-Tail and single-sample contract.
func TestTailSummaryEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		values []float64
		want   Tail
	}{
		{"empty", nil, Tail{}},
		{"empty slice", []float64{}, Tail{}},
		{"single", []float64{4.5}, Tail{Mean: 4.5, P50: 4.5, P95: 4.5, P99: 4.5}},
		{"pair", []float64{2, 4}, Tail{Mean: 3, P50: 2, P95: 4, P99: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := TailSummary(tc.values); got != tc.want {
				t.Fatalf("TailSummary(%v) = %+v, want %+v", tc.values, got, tc.want)
			}
		})
	}
	if got := TailOfSorted(nil); got != (Tail{}) {
		t.Fatalf("TailOfSorted(nil) = %+v, want zero", got)
	}
	if got := TailOfSorted([]float64{8}); got != (Tail{Mean: 8, P50: 8, P95: 8, P99: 8}) {
		t.Fatalf("TailOfSorted single = %+v", got)
	}
}
