package obs

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randomRegistry fills a registry with a random mix of counter, gauge and
// histogram families, random label sets and random values, and returns
// the expected sample rows keyed by "name{sortedlabels}".
func randomRegistry(r *rand.Rand) (*Registry, map[string]float64) {
	reg := NewRegistry()
	want := make(map[string]float64)
	key := func(name string, labels []Label) string {
		return name + "{" + seriesKey(sortLabels(labelMap(labels))) + "}"
	}
	labelValues := []string{"a", "b c", `with"quote`, `back\slash`, "new\nline", "z"}
	families := 1 + r.Intn(6)
	for f := 0; f < families; f++ {
		name := fmt.Sprintf("bicrit_rt_fam_%d", f)
		help := []string{"", "plain help", `escaped \ help`, "multi\nline"}[r.Intn(4)]
		nLabels := r.Intn(3)
		series := 1 + r.Intn(3)
		for s := 0; s < series; s++ {
			labels := make([]Label, nLabels)
			for i := range labels {
				labels[i] = L(fmt.Sprintf("l%d", i), labelValues[(s+i*2+r.Intn(2))%len(labelValues)])
			}
			switch f % 3 {
			case 0:
				c := reg.Counter(name, help, labels...)
				c.Add(math.Trunc(r.Float64()*1e6) / 16)
				want[key(name, labels)] = c.value()
			case 1:
				g := reg.Gauge(name, help, labels...)
				v := r.NormFloat64() * 1e4
				if r.Intn(8) == 0 {
					v = math.Inf(1)
				}
				g.Set(v)
				want[key(name, labels)] = v
			case 2:
				h := reg.Histogram(name, help, LogBuckets(1e-3, 1e3, 2+r.Intn(20)), labels...)
				for i := 0; i < r.Intn(40); i++ {
					h.Observe(math.Exp(r.NormFloat64() * 4))
				}
				_, sum, count := h.snapshot()
				want[key(name+"_count", labels)] = float64(count)
				want[key(name+"_sum", labels)] = sum
			}
		}
	}
	return reg, want
}

// labelMap converts a label slice to the map shape sortLabels expects.
func labelMap(labels []Label) map[string]string {
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Name] = l.Value
	}
	return m
}

// TestParseTextRoundTripsRandomRegistries is the round-trip property:
// whatever a random registry renders, ParseText must accept and hand back
// with the same families, types, helps, label sets and values —
// histograms included, whose +Inf bucket and _count must agree by
// construction.
func TestParseTextRoundTripsRandomRegistries(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		reg, want := randomRegistry(rand.New(rand.NewSource(seed)))
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatalf("seed %d: write: %v", seed, err)
		}
		fams, err := ParseText(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: ParseText rejected our own output: %v\n%s", seed, err, buf.String())
		}

		got := make(map[string]float64)
		for _, fam := range fams {
			for _, row := range fam.Rows {
				got[row.Name+"{"+seriesKey(row.Labels)+"}"] = row.Value
			}
		}
		for k, v := range want {
			gv, ok := got[k]
			if !ok {
				t.Fatalf("seed %d: sample %s missing from parse\n%s", seed, k, buf.String())
			}
			if gv != v && !(math.IsInf(v, 1) && math.IsInf(gv, 1)) {
				t.Errorf("seed %d: sample %s = %g, want %g", seed, k, gv, v)
			}
		}

		// Families round-trip their identity: name, type and help.
		reg.mu.Lock()
		for name, f := range reg.families {
			found := false
			for _, fam := range fams {
				if fam.Name != name {
					continue
				}
				found = true
				if fam.Type != f.typ {
					t.Errorf("seed %d: family %s type = %s, want %s", seed, name, fam.Type, f.typ)
				}
				if fam.Help != f.help {
					t.Errorf("seed %d: family %s help = %q, want %q", seed, name, fam.Help, f.help)
				}
			}
			if !found {
				t.Errorf("seed %d: family %s missing from parse", seed, name)
			}
		}
		reg.mu.Unlock()
	}
}

// TestParseTextRowsCarryHistogramInternals pins the row shape bicrit top
// depends on: bucket rows keep their le label and _bucket suffix, and
// HistogramRows reassembles them into le-ordered cumulative buckets.
func TestParseTextRowsCarryHistogramInternals(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("bicrit_rt_hist_seconds", "h", LogBuckets(1e-2, 1e2, 4), L("phase", "knap"))
	for _, v := range []float64{0.05, 0.5, 5, 50, 1e4} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 1 {
		t.Fatalf("got %d families, want 1", len(fams))
	}
	hists := HistogramRows(fams[0])
	if len(hists) != 1 {
		t.Fatalf("got %d histogram series, want 1", len(hists))
	}
	hs := hists[0]
	if hs.Count != 5 || len(hs.Buckets) != 6 {
		t.Fatalf("count=%g buckets=%d, want 5 and 6", hs.Count, len(hs.Buckets))
	}
	if !math.IsInf(hs.Buckets[len(hs.Buckets)-1].Le, 1) {
		t.Fatalf("last bucket le = %g, want +Inf", hs.Buckets[len(hs.Buckets)-1].Le)
	}
	if hs.Buckets[len(hs.Buckets)-1].Cum != 5 {
		t.Fatalf("+Inf cum = %g, want 5", hs.Buckets[len(hs.Buckets)-1].Cum)
	}
	if want := []Label{{Name: "phase", Value: "knap"}}; !reflect.DeepEqual(hs.Labels, want) {
		t.Fatalf("series labels = %v, want %v (le excluded)", hs.Labels, want)
	}
}
