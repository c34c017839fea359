package slo

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"bicriteria/internal/obs"
)

// outcomes returns a fixed outcome set: 4 jobs on 2 clusters, one miss
// (job 2 finishes late), one unfinished (job 4, counts as a miss).
func outcomes() []JobOutcome {
	return []JobOutcome{
		{Job: 1, Cluster: 0, Release: 0, Pmin: 10, Start: 0, End: 10, Done: true},
		{Job: 2, Cluster: 0, Release: 0, Pmin: 10, Start: 35, End: 45, Done: true},
		{Job: 3, Cluster: 1, Release: 5, Pmin: 5, Start: 6, End: 12, Done: true},
		{Job: 4, Cluster: -1, Release: 8, Pmin: 4},
	}
}

func TestNormalizedDefaults(t *testing.T) {
	n := Spec{}.Normalized()
	if n.DeadlineFactor != DefaultDeadlineFactor || n.BurnFactor != DefaultBurnFactor {
		t.Fatalf("defaults = %+v", n)
	}
	if n.StretchPercentile != 99 || n.WaitPercentile != 99 {
		t.Fatalf("percentile defaults = %+v", n)
	}
	set := Spec{DeadlineFactor: 2, BurnFactor: 3, StretchPercentile: 90, WaitPercentile: 50}
	if got := set.Normalized(); got != set {
		t.Fatalf("Normalized clobbered explicit knobs: %+v", got)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"nan factor", Spec{DeadlineFactor: math.NaN()}},
		{"sub-1 factor", Spec{DeadlineFactor: 0.5}},
		{"miss budget 1", Spec{MissBudget: 1}},
		{"negative burn window", Spec{BurnWindow: -1}},
		{"percentile 101", Spec{StretchPercentile: 101}},
		{"inf wait target", Spec{WaitTarget: math.Inf(1)}},
	}
	for _, tc := range cases {
		if err := tc.spec.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if err := (Spec{}).Validate(); err != nil {
		t.Errorf("zero spec rejected: %v", err)
	}
}

func TestEvaluateDeadlinesAndAlerts(t *testing.T) {
	spec := Spec{DeadlineFactor: 4, MissBudget: 0.25, BurnWindow: 100, StretchTarget: 3, WaitTarget: 20}
	sum := Evaluate(spec, outcomes())
	// Job 2 ends at 45 > 0 + 4*10; job 4 never finished. Jobs 1 and 3 meet.
	if sum.Jobs != 4 || sum.Misses != 2 || sum.MissRate != 0.5 {
		t.Fatalf("summary = %+v, want 2/4 misses", sum)
	}
	wantClusters := []ClusterSummary{
		{Cluster: -1, Jobs: 1, Misses: 1, MissRate: 1},
		{Cluster: 0, Jobs: 2, Misses: 1, MissRate: 0.5},
		{Cluster: 1, Jobs: 1, Misses: 0, MissRate: 0},
	}
	if !reflect.DeepEqual(sum.PerCluster, wantClusters) {
		t.Fatalf("per-cluster = %+v, want %+v", sum.PerCluster, wantClusters)
	}
	states := map[string]string{}
	for _, a := range sum.Alerts {
		states[a.Name] = a.State
	}
	want := map[string]string{
		"deadline-miss-budget": StateFiring,   // 0.5 > 0.25
		"deadline-burn-rate":   StateResolved, // 1/3 windowed < 2*0.25? 0.333 <= 0.5
		"stretch-p99":          StateFiring,   // worst stretch 4.5 > 3
		"wait-p99":             StateFiring,   // worst wait 35 > 20
	}
	if !reflect.DeepEqual(states, want) {
		t.Fatalf("alert states = %v, want %v", states, want)
	}
	if got := len(sum.Firing()); got != 3 {
		t.Fatalf("firing = %d, want 3", got)
	}
}

// TestEvaluateOrderIndependent: evaluation sorts outcomes internally, so
// any permutation yields a deeply equal summary.
func TestEvaluateOrderIndependent(t *testing.T) {
	spec := Spec{MissBudget: 0.25, BurnWindow: 30, StretchTarget: 3, WaitTarget: 20}
	want := Evaluate(spec, outcomes())
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		shuffled := outcomes()
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := Evaluate(spec, shuffled); !reflect.DeepEqual(got, want) {
			t.Fatalf("evaluation depends on outcome order (trial %d):\n%+v\n%+v", trial, got, want)
		}
	}
}

// TestPercentileNearestRank checks that the tail targets take the
// nearest-rank percentile: waits 3, 1, 2, 5, 4 give p20 = 1, p50 = 3 and
// p90 = p100 = 5, and no completed job gives 0.
func TestPercentileNearestRank(t *testing.T) {
	var jobs []JobOutcome
	for i, wait := range []float64{3, 1, 2, 5, 4} {
		jobs = append(jobs, JobOutcome{Job: i, Pmin: 1, Start: wait, End: wait + 1, Done: true})
	}
	for _, tc := range []struct{ p, want float64 }{{20, 1}, {50, 3}, {90, 5}, {100, 5}} {
		if got := Evaluate(Spec{WaitTarget: 1, WaitPercentile: tc.p}, jobs).Wait; got != tc.want {
			t.Errorf("p%g wait = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := Evaluate(Spec{WaitTarget: 1}, nil).Wait; got != 0 {
		t.Errorf("p99 wait of no jobs = %g, want 0", got)
	}
}

func TestPublishGauges(t *testing.T) {
	spec := Spec{MissBudget: 0.25}
	sum := Evaluate(spec, outcomes())
	reg := obs.NewRegistry()
	sum.Publish(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"bicrit_slo_jobs 4",
		"bicrit_slo_deadline_misses 2",
		"bicrit_slo_deadline_miss_rate 0.5",
		`bicrit_slo_cluster_deadline_misses{cluster="0"} 1`,
		`bicrit_slo_alert_firing{alert="deadline-miss-budget"} 1`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition lacks %q:\n%s", want, buf.String())
		}
	}
	sum.Publish(nil) // must not panic
}
