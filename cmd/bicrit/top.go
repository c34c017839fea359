package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"bicriteria/internal/obs"
)

// topCmd is the live terminal dashboard over a running scheduler
// service: it polls GET /metrics.prom on an interval, validates and
// parses each scrape with the obs text parser, diffs successive scrapes
// and renders gauges, counter rates and histogram quantiles — a soak run
// made watchable without any external tooling.
//
//	bicrit top -url http://127.0.0.1:8080/metrics.prom
//	bicrit top -url ... -interval 1s -n 10 -plain   # ten frames into a log
func topCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bicrit top", flag.ContinueOnError)
	url := fs.String("url", "http://127.0.0.1:8080/metrics.prom", "Prometheus text endpoint to poll")
	interval := fs.Duration("interval", 2*time.Second, "poll interval")
	frames := fs.Int("n", 0, "number of frames to render before exiting (0 = until interrupted)")
	plain := fs.Bool("plain", false, "append frames instead of clearing the terminal (logs, CI)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: bicrit top [-url http://host/metrics.prom] [-interval 2s] [-n frames] [-plain]")
	}
	if *interval <= 0 {
		return fmt.Errorf("-interval must be positive, got %s", *interval)
	}

	client := &http.Client{Timeout: *interval + 5*time.Second}
	var prev []obs.Family
	var prevAt time.Time
	for i := 0; *frames == 0 || i < *frames; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		fams, err := scrapeProm(client, *url)
		if err != nil {
			return fmt.Errorf("scrape %d of %s: %v", i+1, *url, err)
		}
		now := time.Now()
		elapsed := 0.0
		if prev != nil {
			elapsed = now.Sub(prevAt).Seconds()
		}
		if !*plain {
			fmt.Fprint(out, "\x1b[2J\x1b[H") // clear screen, home cursor
		}
		fmt.Fprintf(out, "bicrit top — %s — frame %d — every %s\n\n", *url, i+1, *interval)
		fmt.Fprint(out, renderDashboard(prev, fams, elapsed))
		prev, prevAt = fams, now
	}
	return nil
}

// scrapeProm fetches and parses one Prometheus text scrape, validating
// the body (ParseText rejects malformed expositions).
func scrapeProm(client *http.Client, url string) ([]obs.Family, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	return obs.ParseText(resp.Body)
}

// renderDashboard turns one parsed /metrics.prom scrape into the bicrit
// top frame: an ALERTS section when the scrape carries SLO alert gauges
// (bicrit_slo_alert_firing), gauges with their values, counters with totals and rates
// over the scrape interval, histograms with counts, rates and
// nearest-rank quantiles estimated from the cumulative buckets. prev is
// the previous scrape (nil on the first frame — rates render blank) and
// elapsed the wall-clock seconds between the two. Output is
// deterministic for fixed scrapes: families sort by name, series render
// in scrape order (itself deterministic, the registry sorts series).
func renderDashboard(prev, cur []obs.Family, elapsed float64) string {
	prevRows := make(map[string]float64)
	prevHist := make(map[string]float64)
	for _, fam := range prev {
		if fam.Type == obs.TypeHistogram {
			for _, h := range obs.HistogramRows(fam) {
				prevHist[fam.Name+"{"+labelKey(h.Labels)+"}"] = h.Count
			}
			continue
		}
		for _, row := range fam.Rows {
			prevRows[row.Name+"{"+labelKey(row.Labels)+"}"] = row.Value
		}
	}

	fams := append([]obs.Family(nil), cur...)
	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })

	var alerts, gauges, counters, hists strings.Builder
	for _, fam := range fams {
		// The SLO engine publishes one 0/1 gauge per alert rule; surface
		// them as their own dashboard section (they still appear among the
		// plain gauges below, like every other series).
		if fam.Name == "bicrit_slo_alert_firing" {
			for _, row := range fam.Rows {
				name := fam.Name
				for _, l := range row.Labels {
					if l.Name == "alert" {
						name = l.Value
					}
				}
				state := "resolved"
				if row.Value > 0 {
					state = "FIRING"
				}
				fmt.Fprintf(&alerts, "  %-52s %14s\n", name, state)
			}
		}
		switch fam.Type {
		case obs.TypeCounter:
			for _, row := range fam.Rows {
				rate := rateCell(prevRows, row.Name+"{"+labelKey(row.Labels)+"}", row.Value, elapsed)
				fmt.Fprintf(&counters, "  %-52s %14s %12s\n", series(row.Name, row.Labels), num(row.Value), rate)
			}
		case obs.TypeHistogram:
			for _, h := range obs.HistogramRows(fam) {
				key := fam.Name + "{" + labelKey(h.Labels) + "}"
				rate := rateCell(prevHist, key, h.Count, elapsed)
				mean := math.NaN()
				if h.Count > 0 {
					mean = h.Sum / h.Count
				}
				fmt.Fprintf(&hists, "  %-52s %10s %10s %10s %10s %10s %10s\n",
					series(fam.Name, h.Labels), num(h.Count), rate,
					num(h.Quantile(0.5)), num(h.Quantile(0.9)), num(h.Quantile(0.99)), num(mean))
			}
		default: // gauges and anything untyped
			for _, row := range fam.Rows {
				fmt.Fprintf(&gauges, "  %-52s %14s\n", series(row.Name, row.Labels), num(row.Value))
			}
		}
	}

	var b strings.Builder
	if alerts.Len() > 0 {
		fmt.Fprintf(&b, "%-54s %14s\n", "ALERTS", "state")
		b.WriteString(alerts.String())
	}
	if gauges.Len() > 0 {
		fmt.Fprintf(&b, "%-54s %14s\n", "GAUGES", "value")
		b.WriteString(gauges.String())
	}
	if counters.Len() > 0 {
		fmt.Fprintf(&b, "%-54s %14s %12s\n", "COUNTERS", "total", "rate/s")
		b.WriteString(counters.String())
	}
	if hists.Len() > 0 {
		fmt.Fprintf(&b, "%-54s %10s %10s %10s %10s %10s %10s\n",
			"HISTOGRAMS", "count", "rate/s", "p50", "p90", "p99", "mean")
		b.WriteString(hists.String())
	}
	if b.Len() == 0 {
		return "(empty scrape)\n"
	}
	return b.String()
}

// series renders a sample name with its labels in the scrape syntax.
func series(name string, labels []obs.Label) string {
	if len(labels) == 0 {
		return name
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Name + "=" + strconv.Quote(l.Value)
	}
	return name + "{" + strings.Join(parts, ",") + "}"
}

// labelKey is the diff key of a series between two scrapes.
func labelKey(labels []obs.Label) string {
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Name + "=" + l.Value
	}
	return strings.Join(parts, ",")
}

// rateCell renders the per-second growth of a monotone series between
// scrapes, blank when there is no previous scrape and "reset" when the
// total went down (a restarted server).
func rateCell(prev map[string]float64, key string, cur, elapsed float64) string {
	old, ok := prev[key]
	if !ok || elapsed <= 0 {
		return "—"
	}
	if cur < old {
		return "reset"
	}
	return num((cur - old) / elapsed)
}

// num renders a dashboard value compactly: integers without decimals,
// small magnitudes with sensible precision, NaN and infinities as
// placeholders.
func num(v float64) string {
	switch {
	case math.IsNaN(v):
		return "—"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e12:
		return strconv.FormatFloat(v, 'f', 0, 64)
	case math.Abs(v) >= 0.001 && math.Abs(v) < 1e7:
		s := strconv.FormatFloat(v, 'f', 4, 64)
		return strings.TrimRight(strings.TrimRight(s, "0"), ".")
	default:
		return strconv.FormatFloat(v, 'g', 4, 64)
	}
}
