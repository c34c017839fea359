// Package slo is the deterministic SLO/alert engine: it evaluates
// per-job deadline objectives and tail-latency targets over the outcome
// of a replay (or the done-jobs of a live service) and derives
// firing/resolved alerts.
//
// The paper's reference value anchors the deadline: every job's deadline
// is release + factor · pmin, where pmin is the job's minimum execution
// time — its own makespan lower bound. Evaluation is a pure function of
// the spec and the outcomes (sorted internally under a total order), so
// a concurrent replay reports bit-identical SLO summaries and alert
// states to a sequential one.
package slo

import (
	"fmt"
	"math"
	"sort"

	"bicriteria/internal/obs"
	"bicriteria/internal/stats"
	"bicriteria/internal/validate"
)

// Defaults applied by Normalized for unset spec knobs.
const (
	// DefaultDeadlineFactor is the deadline slack multiplier: a job meets
	// its deadline when it finishes within 4x its fastest possible run
	// after release.
	DefaultDeadlineFactor = 4
	// DefaultBurnFactor fires the burn-rate alert when the windowed miss
	// rate exceeds 2x the overall miss budget.
	DefaultBurnFactor = 2
)

// Spec is the resolved SLO rule set of one scenario or service.
type Spec struct {
	// DeadlineFactor sets every job's deadline to release + factor·pmin;
	// zero means DefaultDeadlineFactor.
	DeadlineFactor float64
	// MissBudget is the tolerated overall deadline-miss rate in [0, 1).
	// The deadline alert fires when the realized rate exceeds it.
	MissBudget float64
	// BurnWindow, when positive, watches the trailing window (in
	// simulated time units, ending at the last completion) for a
	// fast-burning error budget.
	BurnWindow float64
	// BurnFactor scales the burn-rate threshold: the burn alert fires
	// when the windowed miss rate exceeds BurnFactor·MissBudget. Zero
	// means DefaultBurnFactor.
	BurnFactor float64
	// StretchPercentile/StretchTarget alert when the given percentile of
	// job stretch exceeds the target; zero target disables the rule.
	StretchPercentile float64
	StretchTarget     float64
	// WaitPercentile/WaitTarget alert when the given percentile of job
	// wait time exceeds the target; zero target disables the rule.
	WaitPercentile float64
	WaitTarget     float64
}

// Normalized returns the spec with defaults filled in.
func (s Spec) Normalized() Spec {
	if s.DeadlineFactor == 0 {
		s.DeadlineFactor = DefaultDeadlineFactor
	}
	if s.BurnFactor == 0 {
		s.BurnFactor = DefaultBurnFactor
	}
	if s.StretchPercentile == 0 {
		s.StretchPercentile = 99
	}
	if s.WaitPercentile == 0 {
		s.WaitPercentile = 99
	}
	return s
}

// Validate rejects non-finite or out-of-range knobs with field paths
// relative to the spec.
func (s Spec) Validate() error {
	finite := func(field string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return validate.Errorf(field, "must be finite and non-negative, got %g", v)
		}
		return nil
	}
	if err := finite("deadline_factor", s.DeadlineFactor); err != nil {
		return err
	}
	if s.DeadlineFactor != 0 && s.DeadlineFactor < 1 {
		return validate.Errorf("deadline_factor", "a deadline tighter than the job's own lower bound (factor %g < 1) can never be met", s.DeadlineFactor)
	}
	if math.IsNaN(s.MissBudget) || s.MissBudget < 0 || s.MissBudget >= 1 {
		return validate.Errorf("miss_budget", "miss budget must lie in [0, 1), got %g", s.MissBudget)
	}
	if err := finite("burn_window", s.BurnWindow); err != nil {
		return err
	}
	if err := finite("burn_factor", s.BurnFactor); err != nil {
		return err
	}
	for _, p := range []struct {
		field string
		v     float64
	}{{"stretch_percentile", s.StretchPercentile}, {"wait_percentile", s.WaitPercentile}} {
		if math.IsNaN(p.v) || p.v < 0 || p.v > 100 {
			return validate.Errorf(p.field, "percentile must lie in [0, 100], got %g", p.v)
		}
	}
	if err := finite("stretch_target", s.StretchTarget); err != nil {
		return err
	}
	return finite("wait_target", s.WaitTarget)
}

// JobOutcome is one job's realized outcome, the input of Evaluate.
type JobOutcome struct {
	// Job is the task ID and Cluster the cluster that ran it (-1 when the
	// job never ran).
	Job     int
	Cluster int
	// Release is the submission time, Pmin the job's minimum execution
	// time (its lower bound, the deadline anchor).
	Release float64
	Pmin    float64
	// Start and End are the realized execution bounds; meaningful only
	// when Done.
	Start float64
	End   float64
	// Done marks a completed job. Unfinished jobs (lost to faults, or not
	// yet replayed on a live service) count as deadline misses.
	Done bool
}

// Alert states.
const (
	StateFiring   = "firing"
	StateResolved = "resolved"
)

// Alert is one evaluated SLO rule.
type Alert struct {
	// Name identifies the rule ("deadline-miss-budget",
	// "deadline-burn-rate", "stretch-p99", "wait-p99").
	Name string `json:"name"`
	// State is StateFiring or StateResolved.
	State string `json:"state"`
	// Value is the realized quantity and Threshold the rule's limit.
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	// Detail is a human-readable summary of the rule evaluation.
	Detail string `json:"detail"`
}

// Firing reports whether the alert is firing.
func (a Alert) Firing() bool { return a.State == StateFiring }

// ClusterSummary is the per-cluster deadline axis of the summary.
type ClusterSummary struct {
	// Cluster is the cluster index (-1 aggregates jobs that never ran).
	Cluster int `json:"cluster"`
	// Jobs counts the evaluated jobs of the cluster, Misses the ones
	// past their deadline, MissRate their ratio.
	Jobs     int     `json:"jobs"`
	Misses   int     `json:"misses"`
	MissRate float64 `json:"miss_rate"`
}

// Summary is the outcome of one SLO evaluation.
type Summary struct {
	// Jobs counts the evaluated jobs, Misses the deadline misses (an
	// unfinished job counts as a miss), MissRate their ratio.
	Jobs     int     `json:"jobs"`
	Misses   int     `json:"misses"`
	MissRate float64 `json:"miss_rate"`
	// PerCluster breaks the deadline axis down by cluster, ordered by
	// cluster index.
	PerCluster []ClusterSummary `json:"per_cluster"`
	// Stretch and Wait are the realized percentile values of the tail
	// rules (zero when the rule is disabled).
	Stretch float64 `json:"stretch,omitempty"`
	Wait    float64 `json:"wait,omitempty"`
	// Alerts lists every evaluated rule in declaration order.
	Alerts []Alert `json:"alerts"`
}

// Evaluate runs the rule set over the outcomes. It is deterministic:
// outcomes are sorted by job ID internally, so callers may pass them in
// any order.
func Evaluate(spec Spec, outcomes []JobOutcome) *Summary {
	spec = spec.Normalized()
	jobs := make([]JobOutcome, len(outcomes))
	copy(jobs, outcomes)
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].Job < jobs[b].Job })

	sum := &Summary{Jobs: len(jobs)}
	perCluster := map[int]*ClusterSummary{}
	var stretches, waits []float64
	var lastEnd float64
	for _, j := range jobs {
		cs := perCluster[j.Cluster]
		if cs == nil {
			cs = &ClusterSummary{Cluster: j.Cluster}
			perCluster[j.Cluster] = cs
		}
		cs.Jobs++
		miss := !j.Done || j.End > j.Release+spec.DeadlineFactor*j.Pmin
		if miss {
			sum.Misses++
			cs.Misses++
		}
		if j.Done {
			if j.End > lastEnd {
				lastEnd = j.End
			}
			if j.Pmin > 0 {
				stretches = append(stretches, (j.End-j.Release)/j.Pmin)
			}
			waits = append(waits, j.Start-j.Release)
		}
	}
	if sum.Jobs > 0 {
		sum.MissRate = float64(sum.Misses) / float64(sum.Jobs)
	}
	clusters := make([]int, 0, len(perCluster))
	for c := range perCluster {
		clusters = append(clusters, c)
	}
	sort.Ints(clusters)
	for _, c := range clusters {
		cs := perCluster[c]
		if cs.Jobs > 0 {
			cs.MissRate = float64(cs.Misses) / float64(cs.Jobs)
		}
		sum.PerCluster = append(sum.PerCluster, *cs)
	}

	alert := func(name string, value, threshold float64, detail string) {
		state := StateResolved
		if value > threshold {
			state = StateFiring
		}
		sum.Alerts = append(sum.Alerts, Alert{Name: name, State: state, Value: value, Threshold: threshold, Detail: detail})
	}

	alert("deadline-miss-budget", sum.MissRate, spec.MissBudget,
		fmt.Sprintf("%d of %d jobs missed release+%g*pmin", sum.Misses, sum.Jobs, spec.DeadlineFactor))

	if spec.BurnWindow > 0 {
		winJobs, winMisses := 0, 0
		for _, j := range jobs {
			if !j.Done {
				continue
			}
			if j.End >= lastEnd-spec.BurnWindow {
				winJobs++
				if j.End > j.Release+spec.DeadlineFactor*j.Pmin {
					winMisses++
				}
			}
		}
		rate := 0.0
		if winJobs > 0 {
			rate = float64(winMisses) / float64(winJobs)
		}
		alert("deadline-burn-rate", rate, spec.BurnFactor*spec.MissBudget,
			fmt.Sprintf("%d of %d jobs completing in the trailing %g window missed", winMisses, winJobs, spec.BurnWindow))
	}

	if spec.StretchTarget > 0 {
		sum.Stretch = stats.Percentile(stretches, spec.StretchPercentile)
		alert(fmt.Sprintf("stretch-p%g", spec.StretchPercentile), sum.Stretch, spec.StretchTarget,
			fmt.Sprintf("p%g stretch over %d completed jobs", spec.StretchPercentile, len(stretches)))
	}
	if spec.WaitTarget > 0 {
		sum.Wait = stats.Percentile(waits, spec.WaitPercentile)
		alert(fmt.Sprintf("wait-p%g", spec.WaitPercentile), sum.Wait, spec.WaitTarget,
			fmt.Sprintf("p%g wait over %d completed jobs", spec.WaitPercentile, len(waits)))
	}
	return sum
}

// Publish pushes the summary into an obs registry: the deadline-miss
// counter-style gauges and one 0/1 gauge per alert, so the SLO state
// rides the same Prometheus exposition as everything else (and `bicrit
// top` can render it).
func (s *Summary) Publish(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Gauge("bicrit_slo_jobs", "Jobs evaluated by the SLO engine.").Set(float64(s.Jobs))
	reg.Gauge("bicrit_slo_deadline_misses", "Jobs past their deadline (release + factor*pmin).").Set(float64(s.Misses))
	reg.Gauge("bicrit_slo_deadline_miss_rate", "Deadline miss rate over evaluated jobs.").Set(s.MissRate)
	for _, cs := range s.PerCluster {
		reg.Gauge("bicrit_slo_cluster_deadline_misses", "Deadline misses per cluster.",
			obs.L("cluster", fmt.Sprint(cs.Cluster))).Set(float64(cs.Misses))
	}
	for _, a := range s.Alerts {
		v := 0.0
		if a.Firing() {
			v = 1
		}
		reg.Gauge("bicrit_slo_alert_firing", "1 while the named SLO alert is firing.",
			obs.L("alert", a.Name)).Set(v)
	}
}
