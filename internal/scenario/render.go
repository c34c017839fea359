package scenario

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"bicriteria/internal/cluster"
	"bicriteria/internal/grid"
	"bicriteria/internal/serve"
	"bicriteria/internal/slo"
)

// This file renders scenario reports in a stable byte format: cmd/bicrit's
// goldens pin the text report, the verbose lines and the grid's JSON and
// CSV exports byte for byte.

// FormatBatchLine renders one committed batch as the verbose line.
func FormatBatchLine(br cluster.BatchReport) string {
	killed := ""
	if len(br.KillEvents) > 0 {
		killed = fmt.Sprintf("  killed=%d", len(br.KillEvents))
	}
	return fmt.Sprintf("batch %3d  t=%9.2f  jobs=%3d  winner=%-9s  planned=%8.2f  realized=%8.2f  util=%5.1f%%%s\n",
		br.Index, br.FireTime, len(br.Jobs), br.Winner, br.PlannedMakespan, br.RealizedMakespan,
		100*br.Utilization, killed)
}

// FormatDecisionLine renders one routing decision as the verbose line.
func FormatDecisionLine(d grid.Decision) string {
	migrated := ""
	if d.Migrated {
		migrated = "  [migrated]"
	}
	return fmt.Sprintf("route job %4d  t=%9.2f  -> cluster %d  (backlog %.2f)%s\n",
		d.JobID, d.Release, d.Cluster, d.Backlog, migrated)
}

// WriteReport renders the unified report as the text report of the
// matching topology, followed by the SLO section when the scenario carried
// an SLO block (absent otherwise, keeping the pinned bytes intact).
func WriteReport(w io.Writer, info Info, rep *Report) error {
	var err error
	switch {
	case rep.Cluster != nil:
		err = writeClusterText(w, info, rep.Cluster)
	case rep.Grid != nil:
		err = writeGridText(w, info, rep.Grid)
	default:
		return fmt.Errorf("scenario: report carries neither a cluster nor a grid run")
	}
	if err == nil && rep.SLO != nil {
		writeSLOText(w, rep.SLO)
	}
	return err
}

// writeSLOText renders the SLO axis: the deadline misses overall and per
// cluster, then every evaluated alert rule with its state.
func writeSLOText(w io.Writer, sum *slo.Summary) {
	fmt.Fprintln(w, "slo:")
	fmt.Fprintf(w, "  deadline misses       %d of %d jobs (rate %.4f)\n", sum.Misses, sum.Jobs, sum.MissRate)
	for _, cs := range sum.PerCluster {
		name := strconv.Itoa(cs.Cluster)
		if cs.Cluster < 0 {
			name = "unplaced"
		}
		fmt.Fprintf(w, "    cluster %-9s misses=%-3d jobs=%-4d rate=%.4f\n", name, cs.Misses, cs.Jobs, cs.MissRate)
	}
	for _, a := range sum.Alerts {
		fmt.Fprintf(w, "  alert %-21s %-9s value=%.4f threshold=%.4f (%s)\n",
			a.Name, a.State, a.Value, a.Threshold, a.Detail)
	}
}

func writeClusterText(w io.Writer, info Info, report *cluster.Report) error {
	met := report.Metrics
	m := 0
	if len(info.Sizes) > 0 {
		m = info.Sizes[0]
	}
	fmt.Fprintf(w, "replayed %d jobs in %d batches on %d processors (policy %s, objective %s)\n",
		info.Jobs, met.Batches, m, info.BatchPolicy, info.Objective)
	fmt.Fprintf(w, "  realized makespan     %.2f\n", met.Makespan)
	fmt.Fprintf(w, "  weighted completion   %.2f\n", met.WeightedCompletion)
	fmt.Fprintf(w, "  max flow              %.2f\n", met.MaxFlow)
	fmt.Fprintf(w, "  mean stretch          %.2f\n", met.MeanStretch)
	fmt.Fprintf(w, "  stretch p50/p95/p99   %.2f / %.2f / %.2f\n", met.StretchP50, met.StretchP95, met.StretchP99)
	fmt.Fprintf(w, "  bounded slowdown      %.2f (p50 %.2f, p95 %.2f, p99 %.2f)\n",
		met.MeanBoundedSlowdown, met.BoundedSlowdownP50, met.BoundedSlowdownP95, met.BoundedSlowdownP99)
	fmt.Fprintf(w, "  utilization           %.1f%%\n", 100*met.Utilization)
	fmt.Fprintf(w, "  delayed tasks         %d\n", met.Delayed)
	if info.Reservations > 0 {
		fmt.Fprintf(w, "  reservations          %d (all respected)\n", info.Reservations)
	}
	if info.Outages > 0 {
		fmt.Fprintf(w, "  fault injection       %d outage windows (%s replan)\n", info.Outages, info.Replan)
		fmt.Fprintf(w, "  kills                 %d (resubmitted %d, recovered %d, lost %d)\n",
			met.Killed, met.Resubmitted, met.Recovered, met.Lost)
	}
	names := make([]string, 0, len(met.Wins))
	for name := range met.Wins {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "portfolio wins:")
	for _, name := range names {
		fmt.Fprintf(w, "  %-10s %d\n", name, met.Wins[name])
	}
	return nil
}

func writeGridText(w io.Writer, info Info, report *grid.Report) error {
	met := report.Metrics
	total := 0
	for _, m := range info.Sizes {
		total += m
	}
	fmt.Fprintf(w, "routed %d jobs across %d clusters (%d processors, policy %s)\n",
		info.Jobs, met.Clusters, total, report.Policy)
	fmt.Fprintf(w, "  grid makespan         %.2f\n", met.Makespan)
	fmt.Fprintf(w, "  weighted completion   %.2f\n", met.WeightedCompletion)
	fmt.Fprintf(w, "  max flow              %.2f\n", met.MaxFlow)
	fmt.Fprintf(w, "  mean stretch          %.2f\n", met.MeanStretch)
	fmt.Fprintf(w, "  stretch p50/p95/p99   %.2f / %.2f / %.2f\n", met.StretchP50, met.StretchP95, met.StretchP99)
	fmt.Fprintf(w, "  bounded slowdown      %.2f (p50 %.2f, p95 %.2f, p99 %.2f)\n",
		met.MeanBoundedSlowdown, met.BoundedSlowdownP50, met.BoundedSlowdownP95, met.BoundedSlowdownP99)
	fmt.Fprintf(w, "  grid utilization      %.1f%%\n", 100*met.Utilization)
	fmt.Fprintf(w, "  admission rejections  %d\n", met.Rejections)
	faulted := info.Plan != nil
	if faulted {
		fmt.Fprintf(w, "  fault plan            %d node outages, %d shard outages\n", len(info.Plan.Nodes), len(info.Plan.Shards))
		fmt.Fprintf(w, "  kills                 %d (resubmitted %d, migrated %d, recovered %d, lost %d)\n",
			met.Killed, met.Resubmitted, met.Migrated, met.Recovered, met.Lost)
	}
	fmt.Fprintln(w, "per-cluster:")
	for _, pc := range met.PerCluster {
		winners := make([]string, 0, len(pc.Wins))
		for name := range pc.Wins {
			winners = append(winners, name)
		}
		sort.Strings(winners)
		wins := make([]string, 0, len(winners))
		for _, name := range winners {
			wins = append(wins, fmt.Sprintf("%s:%d", name, pc.Wins[name]))
		}
		faultCols := ""
		if faulted {
			faultCols = fmt.Sprintf("killed=%d migrated=%d lost=%d  ", pc.Killed, pc.Migrated, pc.Lost)
		}
		fmt.Fprintf(w, "  cluster %d  m=%-4d jobs=%-4d batches=%-3d makespan=%8.2f  util=%5.1f%%  stretch=%.2f  peak-backlog=%.2f  rejected=%d  %swins %s\n",
			pc.Index, pc.M, pc.Jobs, pc.Batches, pc.Makespan, 100*pc.Utilization, pc.MeanStretch, pc.PeakBacklog, pc.Rejected, faultCols, strings.Join(wins, " "))
	}
	return nil
}

// jsonReport is the stable JSON shape of a grid run.
type jsonReport struct {
	Policy    string          `json:"policy"`
	Metrics   grid.Metrics    `json:"metrics"`
	Decisions []grid.Decision `json:"decisions"`
	// SLO appears exactly when the scenario carried an SLO block, so the
	// pinned export bytes are untouched without one.
	SLO *slo.Summary `json:"slo,omitempty"`
}

// WriteReportJSON exports the grid half of the report as the stable JSON
// shape. Single-topology reports have no JSON export.
func WriteReportJSON(w io.Writer, rep *Report) error {
	if rep.Grid == nil {
		return fmt.Errorf("scenario: JSON export needs a grid report")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonReport{
		Policy:    rep.Grid.Policy,
		Metrics:   rep.Grid.Metrics,
		Decisions: rep.Grid.Decisions,
		SLO:       rep.SLO,
	})
}

// WriteReportCSV exports the per-cluster summary table as CSV, with the
// fault columns appearing exactly when the compiled scenario carries a
// fault plan (Info.Plan non-nil).
func WriteReportCSV(w io.Writer, info Info, rep *Report) error {
	if rep.Grid == nil {
		return fmt.Errorf("scenario: CSV export needs a grid report")
	}
	faulted := info.Plan != nil
	cw := csv.NewWriter(w)
	header := []string{"cluster", "m", "jobs", "batches", "makespan", "utilization", "mean_stretch", "peak_backlog", "rejected"}
	if faulted {
		header = append(header, "killed", "resubmitted", "migrated", "recovered", "lost")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, pc := range rep.Grid.Metrics.PerCluster {
		rec := []string{
			strconv.Itoa(pc.Index),
			strconv.Itoa(pc.M),
			strconv.Itoa(pc.Jobs),
			strconv.Itoa(pc.Batches),
			strconv.FormatFloat(pc.Makespan, 'f', 6, 64),
			strconv.FormatFloat(pc.Utilization, 'f', 6, 64),
			strconv.FormatFloat(pc.MeanStretch, 'f', 6, 64),
			strconv.FormatFloat(pc.PeakBacklog, 'f', 6, 64),
			strconv.Itoa(pc.Rejected),
		}
		if faulted {
			rec = append(rec,
				strconv.Itoa(pc.Killed),
				strconv.Itoa(pc.Resubmitted),
				strconv.Itoa(pc.Migrated),
				strconv.Itoa(pc.Recovered),
				strconv.Itoa(pc.Lost),
			)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFinalReport renders a drained service's final report as text.
func WriteFinalReport(w io.Writer, rep *serve.FinalReport) {
	met := rep.Metrics
	fmt.Fprintf(w, "final report: %d jobs drained at virtual time %.2f (policy %s)\n",
		rep.Jobs, rep.VirtualNow, rep.Policy)
	fmt.Fprintf(w, "  grid makespan         %.2f\n", met.Makespan)
	fmt.Fprintf(w, "  weighted completion   %.2f\n", met.WeightedCompletion)
	fmt.Fprintf(w, "  mean stretch          %.2f (p95 %.2f, p99 %.2f)\n",
		met.MeanStretch, met.StretchP95, met.StretchP99)
	fmt.Fprintf(w, "  grid utilization      %.1f%%\n", 100*met.Utilization)
	for _, pc := range met.PerCluster {
		fmt.Fprintf(w, "  cluster %d  m=%-4d jobs=%-4d batches=%-3d makespan=%8.2f  util=%5.1f%%\n",
			pc.Index, pc.M, pc.Jobs, pc.Batches, pc.Makespan, 100*pc.Utilization)
	}
}
