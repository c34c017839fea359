package workload

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"bicriteria/internal/moldable"
)

func TestKindStringAndParse(t *testing.T) {
	for _, k := range Kinds() {
		parsed, err := ParseKind(k.String())
		if err != nil || parsed != k {
			t.Errorf("round-trip of %v failed: %v %v", k, parsed, err)
		}
	}
	if _, err := ParseKind("nonsense"); err == nil {
		t.Errorf("unknown kind must fail")
	}
	if Kind(42).String() == "" {
		t.Errorf("unknown kind should still print something")
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Kind: HighlyParallel, M: 10, N: 5}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Kind: HighlyParallel, M: 0, N: 5},
		{Kind: HighlyParallel, M: 10, N: 0},
		{Kind: Kind(99), M: 10, N: 5},
		{Kind: Mixed, M: 10, N: 5, SmallTaskRatio: 1.5},
		{Kind: Mixed, M: 10, N: 5, MinSeqTime: 5, MaxSeqTime: 1},
		{Kind: Mixed, M: 10, N: 5, MinWeight: 5, MaxWeight: 1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should be invalid: %+v", i, cfg)
		}
	}
}

func TestGenerateAllKinds(t *testing.T) {
	for _, kind := range Kinds() {
		inst, err := Generate(Config{Kind: kind, M: 32, N: 50, Seed: 7})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if err := inst.Validate(); err != nil {
			t.Fatalf("%v: generated instance invalid: %v", kind, err)
		}
		if inst.N() != 50 || inst.M != 32 {
			t.Fatalf("%v: wrong shape %d tasks / %d procs", kind, inst.N(), inst.M)
		}
		if !inst.IsMonotonic() {
			t.Fatalf("%v: generated tasks must be monotonic", kind)
		}
		for i := range inst.Tasks {
			task := &inst.Tasks[i]
			if task.MaxProcs() != 32 {
				t.Fatalf("%v: task %d offers %d allocations, want 32", kind, task.ID, task.MaxProcs())
			}
			if task.Weight < 1-1e-9 || task.Weight > 10+1e-9 {
				t.Fatalf("%v: weight %g outside [1,10]", kind, task.Weight)
			}
		}
	}
}

func TestGenerateDeterministicPerSeed(t *testing.T) {
	a, err := Generate(Config{Kind: Cirne, M: 16, N: 20, Seed: 123})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Kind: Cirne, M: 16, N: 20, Seed: 123})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Generate(Config{Kind: Cirne, M: 16, N: 20, Seed: 124})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Tasks {
		for k := range a.Tasks[i].Times {
			if a.Tasks[i].Times[k] != b.Tasks[i].Times[k] {
				t.Fatalf("same seed must give same instance")
			}
		}
	}
	same := true
	for i := range a.Tasks {
		for k := range a.Tasks[i].Times {
			if a.Tasks[i].Times[k] != c.Tasks[i].Times[k] {
				same = false
			}
		}
	}
	if same {
		t.Fatalf("different seeds should give different instances")
	}
}

func TestUniformSequentialTimesInRange(t *testing.T) {
	inst, err := Generate(Config{Kind: WeaklyParallel, M: 8, N: 300, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range inst.Tasks {
		seq := inst.Tasks[i].SeqTime()
		if seq < 1-1e-9 || seq > 10+1e-9 {
			t.Fatalf("sequential time %g outside [1,10]", seq)
		}
	}
}

func TestParallelismDegreeDiffersBetweenKinds(t *testing.T) {
	weak, _ := Generate(Config{Kind: WeaklyParallel, M: 64, N: 200, Seed: 5})
	high, _ := Generate(Config{Kind: HighlyParallel, M: 64, N: 200, Seed: 5})
	avgSpeedup := func(inst *moldable.Instance) float64 {
		total := 0.0
		for i := range inst.Tasks {
			total += inst.Tasks[i].Speedup(inst.M)
		}
		return total / float64(inst.N())
	}
	sw, sh := avgSpeedup(weak), avgSpeedup(high)
	if sh < 4*sw {
		t.Fatalf("highly parallel tasks should have much larger speedups: weak=%.2f high=%.2f", sw, sh)
	}
	if sw > 3 {
		t.Fatalf("weakly parallel speedup suspiciously high: %.2f", sw)
	}
	if sh < 10 {
		t.Fatalf("highly parallel speedup suspiciously low: %.2f", sh)
	}
}

func TestMixedWorkloadHasTwoClasses(t *testing.T) {
	inst, err := Generate(Config{Kind: Mixed, M: 32, N: 400, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	small, large := 0, 0
	for i := range inst.Tasks {
		if inst.Tasks[i].SeqTime() < 4 {
			small++
		} else {
			large++
		}
	}
	ratio := float64(small) / float64(small+large)
	if ratio < 0.55 || ratio > 0.85 {
		t.Fatalf("small-task ratio %.2f not near 0.7 (small=%d large=%d)", ratio, small, large)
	}
}

func TestDowneySpeedupProperties(t *testing.T) {
	cases := []struct{ a, sigma float64 }{
		{1, 0}, {4, 0.5}, {16, 1}, {50, 1.5}, {100, 2}, {7.3, 0.01},
	}
	for _, c := range cases {
		prev := 0.0
		for n := 1; n <= 128; n++ {
			s := DowneySpeedup(c.a, c.sigma, n)
			if s < 1-1e-9 || s > float64(n)+1e-9 {
				t.Fatalf("A=%g sigma=%g n=%d: speedup %g outside [1,n]", c.a, c.sigma, n, s)
			}
			if s < prev-1e-6 {
				t.Fatalf("A=%g sigma=%g n=%d: speedup decreasing (%g < %g)", c.a, c.sigma, n, s, prev)
			}
			if s > c.a*(1+1e-9)+1e-9 && c.a >= 1 {
				// Downey's model never exceeds the average parallelism A by
				// more than rounding.
				t.Fatalf("A=%g sigma=%g n=%d: speedup %g exceeds A", c.a, c.sigma, n, s)
			}
			prev = s
		}
	}
	if DowneySpeedup(4, 1, 0) != 0 {
		t.Fatalf("n=0 should return 0")
	}
	if s := DowneySpeedup(0.2, -1, 3); s < 1 {
		t.Fatalf("degenerate parameters should clamp, got %g", s)
	}
}

func TestEnforceMonotony(t *testing.T) {
	times := []float64{10, 12, 3, 2.9, 2.95}
	EnforceMonotony(times)
	for k := 2; k <= len(times); k++ {
		if times[k-1] > times[k-2]+1e-12 {
			t.Fatalf("times not non-increasing at %d: %v", k, times)
		}
		if float64(k)*times[k-1] < float64(k-1)*times[k-2]-1e-9 {
			t.Fatalf("work decreasing at %d: %v", k, times)
		}
	}
	if times[0] != 10 {
		t.Fatalf("sequential time must be preserved")
	}
}

func TestPropertyGeneratedTasksMonotonicAndPositive(t *testing.T) {
	f := func(seed int64, kindRaw uint8) bool {
		kind := Kinds()[int(kindRaw)%len(Kinds())]
		inst, err := Generate(Config{Kind: kind, M: 1 + int(seed%31+31)%31 + 1, N: 10, Seed: seed})
		if err != nil {
			return false
		}
		if !inst.IsMonotonic() {
			return false
		}
		for i := range inst.Tasks {
			for _, p := range inst.Tasks[i].Times {
				if p <= 0 || math.IsNaN(p) || math.IsInf(p, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestInstanceJSONRoundTrip(t *testing.T) {
	inst, err := Generate(Config{Kind: Mixed, M: 16, N: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	inst.Tasks[0].Name = "first"
	var buf bytes.Buffer
	if err := WriteInstance(&buf, inst); err != nil {
		t.Fatal(err)
	}
	back, err := ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.M != inst.M || back.N() != inst.N() {
		t.Fatalf("round-trip changed shape")
	}
	if back.Tasks[0].Name != "first" {
		t.Fatalf("round-trip lost task name")
	}
	for i := range inst.Tasks {
		if back.Tasks[i].Weight != inst.Tasks[i].Weight {
			t.Fatalf("round-trip changed weight of task %d", i)
		}
		for k := range inst.Tasks[i].Times {
			if back.Tasks[i].Times[k] != inst.Tasks[i].Times[k] {
				t.Fatalf("round-trip changed time of task %d", i)
			}
		}
	}
}

func TestReadInstanceRejectsGarbage(t *testing.T) {
	if _, err := ReadInstance(bytes.NewBufferString("not json")); err == nil {
		t.Fatalf("garbage must fail")
	}
	if _, err := ReadInstance(bytes.NewBufferString(`{"version":99,"processors":2,"tasks":[]}`)); err == nil {
		t.Fatalf("wrong version must fail")
	}
	if _, err := ReadInstance(bytes.NewBufferString(`{"version":1,"processors":2,"tasks":[]}`)); err == nil {
		t.Fatalf("empty instance must fail validation")
	}
}

func TestSaveAndLoadInstance(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/workload.json"
	inst, err := Generate(Config{Kind: HighlyParallel, M: 8, N: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveInstance(path, inst); err != nil {
		t.Fatal(err)
	}
	back, err := LoadInstance(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 5 || back.M != 8 {
		t.Fatalf("loaded instance has wrong shape")
	}
	if _, err := LoadInstance(dir + "/missing.json"); err == nil {
		t.Fatalf("missing file must fail")
	}
}

func TestParseDistribution(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Distribution
	}{
		{"", DistDefault}, {"default", DistDefault},
		{"exponential", DistExponential}, {"exp", DistExponential}, {"poisson", DistExponential},
		{"lognormal", DistLognormal}, {"weibull", DistWeibull},
	} {
		got, err := ParseDistribution(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseDistribution(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseDistribution("zipf"); err == nil {
		t.Fatal("unknown distribution accepted")
	}
}

func TestHeavyTailedArrivalsKeepMeanRateAndOrder(t *testing.T) {
	const n, rate = 4000, 2.0
	for _, dist := range []Distribution{DistExponential, DistLognormal, DistWeibull} {
		arrivals, err := GenerateArrivals(ArrivalConfig{
			Workload:     Config{Kind: WeaklyParallel, M: 4, N: n, Seed: 12},
			Rate:         rate,
			Interarrival: dist,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(arrivals); i++ {
			if arrivals[i].Submit < arrivals[i-1].Submit {
				t.Fatalf("%v: arrivals out of order at %d", dist, i)
			}
		}
		// The long-run rate must stay Rate whatever the gap law; heavy
		// tails need a loose tolerance.
		span := arrivals[len(arrivals)-1].Submit
		got := float64(n) / span
		if got < rate/2 || got > rate*2 {
			t.Fatalf("%v: realized rate %g too far from %g (span %g)", dist, got, rate, span)
		}
	}
}

func TestHeavyTailedArrivalsAreBurstierThanPoisson(t *testing.T) {
	gaps := func(dist Distribution) []float64 {
		arrivals, err := GenerateArrivals(ArrivalConfig{
			Workload:     Config{Kind: WeaklyParallel, M: 4, N: 3000, Seed: 5},
			Rate:         1,
			Interarrival: dist,
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 0, len(arrivals)-1)
		for i := 1; i < len(arrivals); i++ {
			out = append(out, arrivals[i].Submit-arrivals[i-1].Submit)
		}
		return out
	}
	cv2 := func(values []float64) float64 {
		mean := 0.0
		for _, v := range values {
			mean += v
		}
		mean /= float64(len(values))
		variance := 0.0
		for _, v := range values {
			variance += (v - mean) * (v - mean)
		}
		variance /= float64(len(values) - 1)
		return variance / (mean * mean)
	}
	poisson := cv2(gaps(DistExponential))
	for _, dist := range []Distribution{DistLognormal, DistWeibull} {
		if heavy := cv2(gaps(dist)); heavy < poisson {
			t.Fatalf("%v gaps have squared CV %g, not burstier than Poisson's %g", dist, heavy, poisson)
		}
	}
}

func TestRuntimeTailScalesTasksAndPreservesValidity(t *testing.T) {
	base := ArrivalConfig{
		Workload: Config{Kind: Mixed, M: 16, N: 300, Seed: 9},
		Rate:     2,
	}
	plain, err := GenerateArrivals(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, dist := range []Distribution{DistLognormal, DistWeibull} {
		cfg := base
		cfg.RuntimeTail = dist
		tailed, err := GenerateArrivals(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(tailed) != len(plain) {
			t.Fatalf("%v: runtime scaling changed the job count", dist)
		}
		ratioSum, changed := 0.0, 0
		for i := range tailed {
			if err := tailed[i].Task.Validate(); err != nil {
				t.Fatalf("%v: scaled task invalid: %v", dist, err)
			}
			if !tailed[i].Task.IsMonotonic() {
				t.Fatalf("%v: scaling broke monotony of task %d", dist, i)
			}
			// Submission instants are untouched by runtime scaling.
			if tailed[i].Submit != plain[i].Submit {
				t.Fatalf("%v: runtime scaling moved submission %d", dist, i)
			}
			ratio := tailed[i].Task.SeqTime() / plain[i].Task.SeqTime()
			ratioSum += ratio
			if ratio != 1 {
				changed++
			}
		}
		if changed == 0 {
			t.Fatalf("%v: runtime tail scaled nothing", dist)
		}
		// The multiplier has mean 1; with 300 samples of a heavy-tailed
		// law the empirical mean stays within a loose band.
		if mean := ratioSum / float64(len(tailed)); mean < 0.5 || mean > 2 {
			t.Fatalf("%v: mean runtime multiplier %g too far from 1", dist, mean)
		}
	}
}

func TestArrivalConfigValidatesDistributions(t *testing.T) {
	base := ArrivalConfig{Workload: Config{Kind: Mixed, M: 8, N: 4, Seed: 1}, Rate: 1}
	bad := base
	bad.Interarrival = Distribution(99)
	if _, err := GenerateArrivals(bad); err == nil {
		t.Fatal("unknown interarrival distribution accepted")
	}
	bad = base
	bad.RuntimeTail = Distribution(-1)
	if _, err := GenerateArrivals(bad); err == nil {
		t.Fatal("unknown runtime distribution accepted")
	}
	bad = base
	bad.InterarrivalShape = -0.5
	if _, err := GenerateArrivals(bad); err == nil {
		t.Fatal("negative shape accepted")
	}
	bad = base
	bad.RuntimeTailShape = math.Inf(1)
	if _, err := GenerateArrivals(bad); err == nil {
		t.Fatal("infinite shape accepted")
	}
}

func TestArrivalsRoundTrip(t *testing.T) {
	arrivals, err := GenerateArrivals(ArrivalConfig{
		Workload:     Config{Kind: Mixed, M: 16, N: 25, Seed: 7},
		Rate:         3,
		BurstSize:    4,
		Interarrival: DistLognormal,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "arrivals.json")
	if err := SaveArrivals(path, 16, arrivals); err != nil {
		t.Fatal(err)
	}
	loaded, m, err := LoadArrivals(path)
	if err != nil {
		t.Fatal(err)
	}
	if m != 16 {
		t.Fatalf("machine size %d, want 16", m)
	}
	if !reflect.DeepEqual(arrivals, loaded) {
		t.Fatalf("arrival stream did not round-trip:\nwrote %+v\nread  %+v", arrivals[:2], loaded[:2])
	}
}

func TestReadArrivalsRejectsBadStreams(t *testing.T) {
	cases := map[string]string{
		"garbage":         "not json",
		"bad version":     `{"version": 99, "arrivals": []}`,
		"negative submit": `{"version": 1, "arrivals": [{"submit": -1, "id": 1, "weight": 1, "times": [2]}]}`,
		"order break":     `{"version": 1, "arrivals": [{"submit": 5, "id": 1, "weight": 1, "times": [2]}, {"submit": 4, "id": 2, "weight": 1, "times": [2]}]}`,
		"invalid task":    `{"version": 1, "arrivals": [{"submit": 0, "id": 1, "weight": 1, "times": []}]}`,
	}
	for name, body := range cases {
		if _, _, err := ReadArrivals(strings.NewReader(body)); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}
