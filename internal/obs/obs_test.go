package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"bicriteria/internal/stats"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("bicrit_test_total", "help", L("kind", "a"))
	c.Inc()
	c.Add(2.5)
	c.Add(-4) // ignored: counters never go down
	if got := c.value(); got != 3.5 {
		t.Fatalf("counter = %g, want 3.5", got)
	}
	c.Sync(10)
	c.Sync(5) // ignored: below current total
	if got := c.value(); got != 10 {
		t.Fatalf("after Sync, counter = %g, want 10", got)
	}
	if again := r.Counter("bicrit_test_total", "help", L("kind", "a")); again != c {
		t.Fatalf("second lookup returned a different series")
	}

	g := r.Gauge("bicrit_test_gauge", "help")
	g.Set(4)
	g.Set(2.5)
	if got := g.value(); got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("bicrit_test_total", "help")
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("bicrit_test_total", "help")
}

func TestLogBucketsMatchStatsGeometry(t *testing.T) {
	const lo, hi, n = 1e-2, 1e6, 40
	bounds := LogBuckets(lo, hi, n)
	if len(bounds) != n+1 {
		t.Fatalf("len(bounds) = %d, want %d", len(bounds), n+1)
	}
	h, err := stats.NewHistogram(lo, hi, n)
	if err != nil {
		t.Fatal(err)
	}
	snap := h.Snapshot()
	// bounds[0] is lo (the underflow cut); bounds[i] for i >= 1 must be the
	// upper bound of stats bucket i-1.
	if bounds[0] != lo {
		t.Fatalf("bounds[0] = %g, want %g", bounds[0], lo)
	}
	for i, b := range snap.Buckets {
		if rel := math.Abs(bounds[i+1]-b.Hi) / b.Hi; rel > 1e-12 {
			t.Fatalf("bounds[%d] = %g, stats bucket hi = %g", i+1, bounds[i+1], b.Hi)
		}
	}
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("bicrit_test_seconds", "help", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100, math.NaN()} {
		h.Observe(v)
	}
	cum, sum, n := h.snapshot()
	if n != 5 {
		t.Fatalf("count = %d, want 5 (NaN ignored)", n)
	}
	if want := 0.05 + 0.1 + 0.5 + 2 + 100; sum != want {
		t.Fatalf("sum = %g, want %g", sum, want)
	}
	// le=0.1 captures 0.05 and 0.1; le=1 adds 0.5; le=10 adds 2; +Inf adds 100.
	want := []uint64{2, 3, 4, 5}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cum[%d] = %d, want %d (full: %v)", i, cum[i], w, cum)
		}
	}
}

func TestHistogramSetFrom(t *testing.T) {
	const lo, hi, n = 1.0, 1e4, 10
	sh, err := stats.NewHistogram(lo, hi, n)
	if err != nil {
		t.Fatal(err)
	}
	samples := []float64{0.5, 1, 3, 700, 2e6}
	sum := 0.0
	for _, v := range samples {
		sh.Observe(v)
		sum += v
	}
	r := NewRegistry()
	h := r.Histogram("bicrit_test_mirror", "help", LogBuckets(lo, hi, n))
	h.SetFrom(sh.Snapshot(), sum)
	cum, gotSum, count := h.snapshot()
	if count != uint64(len(samples)) {
		t.Fatalf("count = %d, want %d", count, len(samples))
	}
	if gotSum != sum {
		t.Fatalf("sum = %g, want %g", gotSum, sum)
	}
	// Underflow (0.5) lands in the first bucket; overflow (2e6) only in +Inf.
	if cum[0] != 1 {
		t.Fatalf("first bucket cumulative = %d, want 1", cum[0])
	}
	if last := cum[len(cum)-1]; last != uint64(len(samples)) {
		t.Fatalf("+Inf cumulative = %d, want %d", last, len(samples))
	}
	if beforeInf := cum[len(cum)-2]; beforeInf != uint64(len(samples)-1) {
		t.Fatalf("last finite cumulative = %d, want %d", beforeInf, len(samples)-1)
	}
}

func TestWritePrometheusDeterministicAndValid(t *testing.T) {
	build := func(order []int) string {
		r := NewRegistry()
		for _, i := range order {
			switch i {
			case 0:
				r.Counter("bicrit_zz_total", "last family", L("kind", "b")).Add(2)
			case 1:
				r.Counter("bicrit_zz_total", "last family", L("kind", "a")).Add(1)
			case 2:
				r.Gauge("bicrit_aa_jobs", "first family").Set(7)
			case 3:
				h := r.Histogram("bicrit_mm_seconds", "middle family", []float64{0.5, 5}, L("algorithm", "demt"))
				h.Observe(0.1)
				h.Observe(50)
			}
		}
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := build([]int{0, 1, 2, 3})
	b := build([]int{3, 2, 1, 0})
	if a != b {
		t.Fatalf("registration order changed the rendered bytes:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	if !strings.Contains(a, `bicrit_zz_total{kind="a"} 1`) {
		t.Fatalf("missing counter sample:\n%s", a)
	}
	if !strings.Contains(a, `bicrit_mm_seconds_bucket{algorithm="demt",le="+Inf"} 2`) {
		t.Fatalf("missing +Inf bucket:\n%s", a)
	}
	idxAA := strings.Index(a, "bicrit_aa_jobs")
	idxMM := strings.Index(a, "bicrit_mm_seconds")
	idxZZ := strings.Index(a, "bicrit_zz_total")
	if !(idxAA < idxMM && idxMM < idxZZ) {
		t.Fatalf("families not sorted by name:\n%s", a)
	}

	fams, err := ParseText(strings.NewReader(a))
	if err != nil {
		t.Fatalf("own output does not parse: %v", err)
	}
	byName := map[string]Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	if f := byName["bicrit_mm_seconds"]; f.Type != TypeHistogram || f.Samples != 5 {
		t.Fatalf("histogram family = %+v, want histogram with 5 samples", f)
	}
	if f := byName["bicrit_zz_total"]; f.Type != TypeCounter || f.Samples != 2 {
		t.Fatalf("counter family = %+v, want counter with 2 samples", f)
	}
}

func TestWritePrometheusEscaping(t *testing.T) {
	r := NewRegistry()
	r.Gauge("bicrit_esc", "help with \\ and\nnewline", L("path", "a\"b\\c\nd")).Set(1)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `# HELP bicrit_esc help with \\ and\nnewline`) {
		t.Fatalf("HELP not escaped:\n%s", out)
	}
	if !strings.Contains(out, `bicrit_esc{path="a\"b\\c\nd"} 1`) {
		t.Fatalf("label value not escaped:\n%s", out)
	}
	if _, err := ParseText(strings.NewReader(out)); err != nil {
		t.Fatalf("escaped output does not parse: %v", err)
	}
}

func TestParseTextRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"bad metric name":   "2bad_name 1\n",
		"bad label name":    `ok{2bad="x"} 1` + "\n",
		"unquoted label":    `ok{l=x} 1` + "\n",
		"missing value":     "ok{}\n",
		"bad value":         "ok notanumber\n",
		"unknown type":      "# TYPE ok exotic\n",
		"unterminated":      `ok{l="x` + "\n",
		"bucket without le": "# TYPE h histogram\nh_bucket 3\n",
		"buckets unordered": "# TYPE h histogram\nh_bucket{le=\"5\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_count 2\n",
		"non-monotone":      "# TYPE h histogram\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"5\"} 2\nh_bucket{le=\"+Inf\"} 3\nh_count 3\n",
		"no +Inf bucket":    "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_count 1\n",
		"count mismatch":    "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 3\n",
	}
	for name, body := range cases {
		if _, err := ParseText(strings.NewReader(body)); err == nil {
			t.Errorf("%s: parsed without error:\n%s", name, body)
		}
	}
	// Sanity: a well-formed scrape with a timestamp and free comment passes.
	good := "# a free-form comment\n# TYPE ok counter\nok{l=\"x\"} 1 1700000000\n"
	if _, err := ParseText(strings.NewReader(good)); err != nil {
		t.Errorf("good scrape rejected: %v", err)
	}
}

func TestPhaseTimer(t *testing.T) {
	r := NewRegistry()
	timer := r.PhaseTimer("bicrit_demt_phase_seconds", "help", "phase")
	timer("knapsack", 0.002)
	timer("compact", 0.001)
	timer("knapsack", 0.004)
	h := r.Histogram("bicrit_demt_phase_seconds", "help", TimeBuckets(), L("phase", "knapsack"))
	_, sum, count := h.snapshot()
	if count != 2 {
		t.Fatalf("knapsack observations = %d, want 2", count)
	}
	if got, want := sum, 0.006; math.Abs(got-want) > 1e-12 {
		t.Fatalf("knapsack sum = %g, want %g", got, want)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("bicrit_conc_total", "h").Inc()
				r.Histogram("bicrit_conc_seconds", "h", TimeBuckets()).Observe(0.001)
				var buf bytes.Buffer
				if err := r.WritePrometheus(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("bicrit_conc_total", "h").value(); got != 800 {
		t.Fatalf("counter = %g, want 800", got)
	}
}
