package obs

import (
	"math"
	"sort"
)

// Bucket is one cumulative histogram bucket of a scrape: the upper bound
// (the le label) and the cumulative count of samples at or below it.
type Bucket struct {
	Le  float64
	Cum float64
}

// bucketQuantile estimates the p-th quantile (p in [0, 1]) of a
// Prometheus-style cumulative bucket distribution using the nearest-rank
// rule: it returns the upper bound of the bucket holding the rank-th
// sample. The estimate is deliberately an upper bound, exactly matching
// stats.Histogram.Quantile on the log-spaced bucket geometry both
// packages share — a histogram mirrored through Histogram.SetFrom yields
// bit-identical quantiles from either side. Samples in the +Inf bucket
// resolve to +Inf; an empty distribution returns 0; p is clamped to
// [0, 1]. Buckets are sorted by bound if needed; the final bucket's
// cumulative count is the total.
func bucketQuantile(p float64, buckets []Bucket) float64 {
	if len(buckets) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(buckets, func(i, j int) bool { return buckets[i].Le < buckets[j].Le }) {
		buckets = append([]Bucket(nil), buckets...)
		sort.Slice(buckets, func(i, j int) bool { return buckets[i].Le < buckets[j].Le })
	}
	total := buckets[len(buckets)-1].Cum
	if total <= 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := math.Ceil(p * total)
	if rank < 1 {
		rank = 1
	}
	for _, b := range buckets {
		if b.Cum >= rank {
			return b.Le
		}
	}
	return buckets[len(buckets)-1].Le
}

// HistogramRows digests the _bucket/_sum/_count rows of one parsed
// histogram family (see ParseText) into per-series cumulative bucket
// sets. Series are keyed by their non-le labels and returned sorted by
// that key, so successive scrapes line up deterministically.
func HistogramRows(fam Family) []ScrapeHistogram {
	byKey := make(map[string]*ScrapeHistogram)
	order := []string{}
	get := func(key string, labels []Label) *ScrapeHistogram {
		h, ok := byKey[key]
		if !ok {
			h = &ScrapeHistogram{Labels: labels}
			byKey[key] = h
			order = append(order, key)
		}
		return h
	}
	for _, row := range fam.Rows {
		labels := make([]Label, 0, len(row.Labels))
		for _, l := range row.Labels {
			if l.Name != "le" {
				labels = append(labels, l)
			}
		}
		key := seriesKey(labels)
		switch row.Name {
		case fam.Name + "_bucket":
			le, err := parseFloat(row.label("le"))
			if err != nil {
				continue // ParseText validated the scrape; be lenient here
			}
			h := get(key, labels)
			h.Buckets = append(h.Buckets, Bucket{Le: le, Cum: row.Value})
		case fam.Name + "_sum":
			get(key, labels).Sum = row.Value
		case fam.Name + "_count":
			get(key, labels).Count = row.Value
		}
	}
	sort.Strings(order)
	out := make([]ScrapeHistogram, len(order))
	for i, key := range order {
		out[i] = *byKey[key]
	}
	return out
}

// ScrapeHistogram is one histogram series reassembled from a scrape.
type ScrapeHistogram struct {
	// Labels are the series labels, le excluded, sorted by name.
	Labels []Label
	// Buckets are the cumulative buckets in le order (+Inf last).
	Buckets []Bucket
	// Sum and Count mirror the _sum and _count samples.
	Sum   float64
	Count float64
}

// Quantile estimates the p-th quantile of the series (see
// bucketQuantile).
func (h ScrapeHistogram) Quantile(p float64) float64 { return bucketQuantile(p, h.Buckets) }
