package obs

import (
	"bytes"
	"testing"
)

// FuzzParseText holds the text-format parser, which bicrit top feeds
// scraped outside text into, to its contract: every input yields an error
// or families, never a panic or a hang. On accepted input it also walks
// what the dashboard reads from a scrape: every row, and every histogram
// series' buckets and quantiles. The seed corpus in
// testdata/fuzz/FuzzParseText holds a real /metrics.prom scrape, escaped
// label values, a histogram without a +Inf bucket and a truncated line;
// cmd/bicrit renders the same corpus through its dashboard. Smoke it
// with: go test -run '^$' -fuzz '^FuzzParseText$' -fuzztime 10s ./internal/obs
func FuzzParseText(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fams, err := ParseText(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, fam := range fams {
			if fam.Samples != len(fam.Rows) {
				t.Fatalf("family %q counts %d samples but holds %d rows", fam.Name, fam.Samples, len(fam.Rows))
			}
			if fam.Type != TypeHistogram {
				continue
			}
			for _, h := range HistogramRows(fam) {
				for _, p := range []float64{0, 0.5, 0.9, 0.99, 1} {
					h.Quantile(p)
				}
			}
		}
	})
}
