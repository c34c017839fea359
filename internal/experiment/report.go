package experiment

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"bicriteria/internal/workload"
)

// FigureConfig returns the configuration reproducing one of the paper's
// figures:
//
//	3: weakly parallel workload, 4: highly parallel, 5: mixed, 6: Cirne,
//	7: scheduler execution time (run on the weakly/highly/Cirne workloads).
//
// runs and seed override the number of runs per point (paper: 40) and the
// base seed; useLP selects the LP minsum lower bound (paper) instead of the
// fast squashed-area bound.
func FigureConfig(figure, runs int, seed int64, useLP bool) (Config, error) {
	cfg := Config{Runs: runs, Seed: seed, UseLPBound: useLP}
	switch figure {
	case 3:
		cfg.Workload = workload.WeaklyParallel
	case 4:
		cfg.Workload = workload.HighlyParallel
	case 5:
		cfg.Workload = workload.Mixed
	case 6:
		cfg.Workload = workload.Cirne
	case 7:
		// Figure 7 only measures the DEMT scheduling time; the workload is
		// chosen by the caller among weakly/highly/cirne. Default: weakly.
		cfg.Workload = workload.WeaklyParallel
		cfg.Algorithms = []Algorithm{AlgDEMT}
	default:
		return Config{}, fmt.Errorf("experiment: the paper has figures 3 to 7, not %d", figure)
	}
	return cfg, nil
}

// FormatTable renders the result as two text tables (minsum ratios and
// makespan ratios), matching the series plotted in the paper's figures, and
// a third table with the average scheduler time per point.
func FormatTable(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Workload: %s, m=%d processors, %d runs per point", res.Config.Workload, res.Config.M, res.Config.Runs)
	if res.Config.UseLPBound {
		b.WriteString(", LP minsum bound")
	} else {
		b.WriteString(", squashed-area minsum bound")
	}
	b.WriteString("\n\n")

	writeBlock := func(title string, value func(Point) string) {
		fmt.Fprintf(&b, "%s\n", title)
		fmt.Fprintf(&b, "%-6s", "n")
		for _, s := range res.Series {
			fmt.Fprintf(&b, "%14s", s.Algorithm)
		}
		b.WriteString("\n")
		if len(res.Series) == 0 {
			return
		}
		for pi := range res.Series[0].Points {
			fmt.Fprintf(&b, "%-6d", res.Series[0].Points[pi].N)
			for _, s := range res.Series {
				fmt.Fprintf(&b, "%14s", value(s.Points[pi]))
			}
			b.WriteString("\n")
		}
		b.WriteString("\n")
	}

	writeBlock("Weighted minsum ratio (sum WiCi / lower bound)", func(p Point) string {
		return fmt.Sprintf("%.3f", p.MinsumRatio.Mean)
	})
	writeBlock("Makespan ratio (Cmax / lower bound)", func(p Point) string {
		return fmt.Sprintf("%.3f", p.CmaxRatio.Mean)
	})
	writeBlock("Average scheduler time", func(p Point) string {
		return p.SchedulerTime.Round(10_000).String()
	})
	return b.String()
}

// WriteCSV writes one row per (algorithm, task count) with the aggregated
// ratios and timings, suitable for re-plotting the figures.
func WriteCSV(w io.Writer, res *Result) error {
	cw := csv.NewWriter(w)
	header := []string{
		"workload", "algorithm", "n",
		"minsum_ratio_mean", "minsum_ratio_min", "minsum_ratio_max",
		"cmax_ratio_mean", "cmax_ratio_min", "cmax_ratio_max",
		"scheduler_seconds",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, s := range res.Series {
		for _, p := range s.Points {
			row := []string{
				res.Config.Workload.String(),
				string(s.Algorithm),
				strconv.Itoa(p.N),
				formatFloat(p.MinsumRatio.Mean), formatFloat(p.MinsumRatio.Min), formatFloat(p.MinsumRatio.Max),
				formatFloat(p.CmaxRatio.Mean), formatFloat(p.CmaxRatio.Min), formatFloat(p.CmaxRatio.Max),
				formatFloat(p.SchedulerTime.Seconds()),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }
