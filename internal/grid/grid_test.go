package grid

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"bicriteria/internal/cluster"
	"bicriteria/internal/moldable"
	"bicriteria/internal/reservation"
	"bicriteria/internal/workload"
)

// stream generates a deterministic bursty job stream with tasks wide enough
// for the largest test clusters.
func stream(t testing.TB, n int, seed int64) []cluster.Job {
	t.Helper()
	arrivals, err := workload.GenerateArrivals(workload.ArrivalConfig{
		Workload:  workload.Config{Kind: workload.Mixed, M: 32, N: n, Seed: seed},
		Rate:      4,
		BurstSize: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cluster.JobsFromArrivals(arrivals)
}

// eightClusters builds a heterogeneous 8-shard grid: varied sizes,
// per-shard noise seeds, reservations on two shards.
func eightClusters(t testing.TB) []ClusterSpec {
	t.Helper()
	sizes := []int{8, 12, 16, 8, 24, 16, 8, 32}
	specs := make([]ClusterSpec, len(sizes))
	for i, m := range sizes {
		perturb, err := cluster.UniformNoise(0.2, int64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = ClusterSpec{M: m, Perturb: perturb}
	}
	specs[2].Reservations = []reservation.Reservation{{Name: "maint", Procs: 4, Start: 2, End: 10}}
	specs[7].Reservations = []reservation.Reservation{{Name: "upgrade", Procs: 8, Start: 5, End: 25}}
	return specs
}

func policies() []RoutingPolicy {
	return []RoutingPolicy{RoundRobin(), LeastBacklog(), LowerBoundAware(), MoldabilityAware()}
}

func TestGridDeterminismParallelVsSequentialAllPolicies(t *testing.T) {
	jobs := stream(t, 64, 7)
	for _, mk := range []func() RoutingPolicy{RoundRobin, LeastBacklog, LowerBoundAware, MoldabilityAware} {
		name := mk().Name()
		run := func(sequential bool, procs int) *Report {
			old := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(old)
			f, err := New(Config{
				Clusters:     eightClusters(t),
				Routing:      mk(),
				AdmitBacklog: 40,
				Sequential:   sequential,
			})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := f.RunContext(t.Context(), jobs)
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		seq := run(true, 1)
		par := run(false, runtime.NumCPU())
		if !reflect.DeepEqual(seq.Decisions, par.Decisions) {
			t.Fatalf("%s: parallel routing decisions differ from sequential", name)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("%s: parallel grid replay differs from sequential replay", name)
		}
		par2 := run(false, runtime.NumCPU())
		if !reflect.DeepEqual(par, par2) {
			t.Fatalf("%s: two parallel replays differ", name)
		}
		if seq.Metrics.Jobs != len(jobs) {
			t.Fatalf("%s: %d of %d jobs completed", name, seq.Metrics.Jobs, len(jobs))
		}
	}
}

func TestGridFederationReusableAcrossRuns(t *testing.T) {
	jobs := stream(t, 40, 3)
	f, err := New(Config{Clusters: eightClusters(t)[:3], Routing: RoundRobin()})
	if err != nil {
		t.Fatal(err)
	}
	first, err := f.RunContext(t.Context(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	second, err := f.RunContext(t.Context(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("two runs of one federation differ (stateful policy not reset?)")
	}
}

func TestGridNoJobLostOrDuplicated(t *testing.T) {
	jobs := stream(t, 70, 11)
	for _, policy := range policies() {
		f, err := New(Config{Clusters: eightClusters(t), Routing: policy, AdmitBacklog: 20})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := f.RunContext(t.Context(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Decisions) != len(jobs) {
			t.Fatalf("%s: %d decisions for %d jobs", policy.Name(), len(rep.Decisions), len(jobs))
		}
		routed := make(map[int]int, len(jobs))
		for _, d := range rep.Decisions {
			if _, dup := routed[d.JobID]; dup {
				t.Fatalf("%s: job %d routed twice", policy.Name(), d.JobID)
			}
			routed[d.JobID] = d.Cluster
		}
		executed := make(map[int]int, len(jobs))
		for c, shard := range rep.Clusters {
			for _, a := range shard.Schedule.Assignments {
				if _, dup := executed[a.TaskID]; dup {
					t.Fatalf("%s: job %d executed twice", policy.Name(), a.TaskID)
				}
				executed[a.TaskID] = c
			}
		}
		for i := range jobs {
			id := jobs[i].Task.ID
			wantCluster, ok := routed[id]
			if !ok {
				t.Fatalf("%s: job %d never routed", policy.Name(), id)
			}
			gotCluster, ok := executed[id]
			if !ok {
				t.Fatalf("%s: job %d routed to cluster %d but never executed", policy.Name(), id, wantCluster)
			}
			if gotCluster != wantCluster {
				t.Fatalf("%s: job %d routed to cluster %d but executed on %d", policy.Name(), id, wantCluster, gotCluster)
			}
		}
	}
}

func TestGridHeterogeneousClusterSafety(t *testing.T) {
	jobs := stream(t, 60, 19) // tasks offer up to 32 allocations
	specs := []ClusterSpec{{M: 4}, {M: 16}, {M: 32}}
	specs[1].Reservations = []reservation.Reservation{{Name: "maint", Procs: 6, Start: 1, End: 12}}
	for _, policy := range policies() {
		f, err := New(Config{Clusters: specs, Routing: policy})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := f.RunContext(t.Context(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		for c, shard := range rep.Clusters {
			for _, a := range shard.Schedule.Assignments {
				if a.NProcs > specs[c].M {
					t.Fatalf("%s: job %d uses %d processors on the %d-processor cluster %d",
						policy.Name(), a.TaskID, a.NProcs, specs[c].M, c)
				}
				for _, p := range a.Procs {
					if p < 0 || p >= specs[c].M {
						t.Fatalf("%s: job %d placed on processor %d of cluster %d (M=%d)",
							policy.Name(), a.TaskID, p, c, specs[c].M)
					}
				}
			}
		}
		if err := reservation.ValidateAgainstReservations(
			rep.Clusters[1].Schedule, specs[1].Reservations, rep.Clusters[1].Blocked); err != nil {
			t.Fatalf("%s: reservation violated on shard 1: %v", policy.Name(), err)
		}
	}
}

func TestRoundRobinCycles(t *testing.T) {
	f, err := New(Config{Clusters: []ClusterSpec{{M: 8}, {M: 8}, {M: 8}}, Routing: RoundRobin()})
	if err != nil {
		t.Fatal(err)
	}
	var jobs []cluster.Job
	for i := 0; i < 9; i++ {
		jobs = append(jobs, cluster.Job{Task: moldable.Sequential(i, 1, 2), Release: 0})
	}
	rep, err := f.RunContext(t.Context(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range rep.Decisions {
		if d.Cluster != i%3 {
			t.Fatalf("decision %d went to cluster %d, want %d", i, d.Cluster, i%3)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for name, want := range map[string]string{
		"round-robin": "round-robin", "rr": "round-robin",
		"least-backlog": "least-backlog", "backlog": "least-backlog",
		"lower-bound": "lower-bound", "lb": "lower-bound",
		"moldability": "moldability", "mold": "moldability",
	} {
		p, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != want {
			t.Fatalf("%s parsed to %s, want %s", name, p.Name(), want)
		}
	}
	if _, err := ParsePolicy("nonsense"); err == nil {
		t.Fatal("unknown routing policy accepted")
	}
}

func TestRoundRobinSkipsClosedClusters(t *testing.T) {
	p := RoundRobin()
	views := []ClusterView{{Index: 0, M: 8}, {Index: 2, M: 8}}
	if got := p.Route(JobView{}, views); got != 0 {
		t.Fatalf("first choice %d, want 0", got)
	}
	// Cluster 1 is closed (absent): the cycle must jump to 2.
	if got := p.Route(JobView{}, views); got != 2 {
		t.Fatalf("second choice %d, want 2", got)
	}
	if got := p.Route(JobView{}, views); got != 0 {
		t.Fatalf("third choice %d, want 0 (wrap-around)", got)
	}
}

func TestLeastBacklogPicksSmallestQueue(t *testing.T) {
	p := LeastBacklog()
	views := []ClusterView{
		{Index: 0, M: 8, Backlog: 3},
		{Index: 1, M: 16, Backlog: 1},
		{Index: 2, M: 8, Backlog: 2},
	}
	if got := p.Route(JobView{}, views); got != 1 {
		t.Fatalf("chose cluster %d, want 1", got)
	}
	// Ties go to the lowest index.
	views[0].Backlog = 1
	if got := p.Route(JobView{}, views); got != 0 {
		t.Fatalf("tie broke to cluster %d, want 0", got)
	}
}

func TestLowerBoundAwareMinimizesGrowth(t *testing.T) {
	p := LowerBoundAware()
	// Equal machines: the job goes where the drained backlog is shorter.
	views := []ClusterView{
		{Index: 0, M: 8, Backlog: 2},
		{Index: 1, M: 8, Backlog: 1},
	}
	job := JobView{ID: 1, MinWork: []float64{4, 4}}
	if got := p.Route(job, views); got != 1 {
		t.Fatalf("job routed to cluster %d, want 1 (shorter backlog)", got)
	}
	// A large machine absorbs the job at a longer backlog: 2 + 32/64 ends
	// before 1 + 32/8.
	views = []ClusterView{
		{Index: 0, M: 64, Backlog: 2},
		{Index: 1, M: 8, Backlog: 1},
	}
	job = JobView{ID: 2, MinWork: []float64{32, 32}}
	if got := p.Route(job, views); got != 0 {
		t.Fatalf("job routed to cluster %d, want 0 (less work per processor)", got)
	}
	// Ties go to the lowest index: 3.5 + 32/64 and 0 + 32/8 both end at 4.
	views[0].Backlog, views[1].Backlog = 3.5, 0
	if got := p.Route(job, views); got != 0 {
		t.Fatalf("tie broke to cluster %d, want 0", got)
	}
}

// TestLowerBoundAwareSpreadsLoad is the regression test for routing on a
// bound that never drained: measured against the cumulative work ever
// routed, the largest shard always grew least, and a mixed stream on a
// 64/32/32/16/16/8/8/8 grid sent every one of its 2,000 jobs there. On the
// drained backlog clock, at least half the shards must receive jobs.
func TestLowerBoundAwareSpreadsLoad(t *testing.T) {
	arrivals, err := workload.GenerateArrivals(workload.ArrivalConfig{
		Workload:  workload.Config{Kind: workload.Mixed, M: 64, N: 2000, Seed: 1},
		Rate:      8,
		BurstSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	var specs []ClusterSpec
	for _, m := range []int{64, 32, 32, 16, 16, 8, 8, 8} {
		specs = append(specs, ClusterSpec{M: m})
	}
	r := newRouter(specs, LowerBoundAware(), 0, nil)
	for _, j := range cluster.JobsFromArrivals(arrivals) {
		if _, _, err := r.route(j, false); err != nil {
			t.Fatal(err)
		}
	}
	perShard := make([]int, len(specs))
	used := 0
	for c, v := range r.views {
		perShard[c] = v.Jobs
		if v.Jobs > 0 {
			used++
		}
	}
	if used < len(specs)/2 {
		t.Fatalf("lower-bound routing used %d of %d shards: %v jobs per shard", used, len(specs), perShard)
	}
}

func TestMoldabilityAwareMatchesWidthToClusterSize(t *testing.T) {
	p := MoldabilityAware()
	views := []ClusterView{
		{Index: 0, M: 4},
		{Index: 1, M: 16},
		{Index: 2, M: 64},
	}
	for _, tc := range []struct {
		pref int
		want int
	}{
		{pref: 2, want: 0},   // narrow job: smallest fitting cluster
		{pref: 8, want: 1},   // medium job skips the 4-processor shard
		{pref: 64, want: 2},  // wide job: only the big cluster fits
		{pref: 128, want: 2}, // nothing fits: largest cluster truncates least
	} {
		if got := p.Route(JobView{PrefProcs: tc.pref}, views); got != tc.want {
			t.Fatalf("PrefProcs=%d routed to %d, want %d", tc.pref, got, tc.want)
		}
	}
	// Among equal sizes the smaller backlog wins.
	tied := []ClusterView{
		{Index: 0, M: 16, Backlog: 5},
		{Index: 1, M: 16, Backlog: 1},
	}
	if got := p.Route(JobView{PrefProcs: 8}, tied); got != 1 {
		t.Fatalf("backlog tie-break routed to %d, want 1", got)
	}
}

// firstCandidate routes every job to the first cluster it is offered.
type firstCandidate struct{}

func (firstCandidate) Name() string { return "first" }

func (firstCandidate) Route(_ JobView, candidates []ClusterView) int { return candidates[0].Index }

func TestGridAdmissionControlStillRoutesEveryJob(t *testing.T) {
	// Sixteen identical sequential jobs at t=0: a policy taking the first
	// open cluster piles them all on cluster 0, so any job on cluster 1
	// proves the admission limit steered the stream.
	var jobs []cluster.Job
	for i := 0; i < 16; i++ {
		jobs = append(jobs, cluster.Job{Task: moldable.Sequential(i, 1, 10), Release: 0})
	}
	specs := []ClusterSpec{{M: 8}, {M: 8}}

	unlimited, err := New(Config{Clusters: specs, Routing: firstCandidate{}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := unlimited.RunContext(t.Context(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Decisions {
		if d.Cluster != 0 {
			t.Fatalf("without admission control job %d left cluster 0", d.JobID)
		}
	}

	limited, err := New(Config{Clusters: specs, Routing: firstCandidate{}, AdmitBacklog: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err = limited.RunContext(t.Context(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Each admitted sequential job adds 10/8 = 1.25 backlog units: cluster
	// 0 closes after two admissions and the stream spills to cluster 1.
	want := []int{0, 0, 1, 1}
	for i, w := range want {
		if rep.Decisions[i].Cluster != w {
			t.Fatalf("decision %d went to cluster %d, want %d (decisions %v)",
				i, rep.Decisions[i].Cluster, w, rep.Decisions[:len(want)])
		}
	}
	if rep.Metrics.Jobs != len(jobs) {
		t.Fatalf("admission control lost jobs: %d of %d completed", rep.Metrics.Jobs, len(jobs))
	}
	// Cluster 0 was closed for every job after its first two admissions, so
	// its rejection count must be visible in the metrics; without admission
	// control rejections stay zero.
	if rep.Metrics.PerCluster[0].Rejected == 0 || rep.Metrics.Rejections == 0 {
		t.Fatalf("admission closures not surfaced: %+v", rep.Metrics.PerCluster)
	}
	if rep.Metrics.PerCluster[0].PeakBacklog <= 2 {
		t.Fatalf("cluster 0 peak backlog %g never exceeded the admission limit 2",
			rep.Metrics.PerCluster[0].PeakBacklog)
	}
	unlimitedRep, err := unlimited.RunContext(t.Context(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if unlimitedRep.Metrics.Rejections != 0 {
		t.Fatalf("rejections %d without admission control", unlimitedRep.Metrics.Rejections)
	}
}

func TestGridMetricsAggregation(t *testing.T) {
	jobs := stream(t, 50, 23)
	f, err := New(Config{Clusters: eightClusters(t)[:4], Routing: LeastBacklog()})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.RunContext(t.Context(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Metrics
	if m.Clusters != 4 || m.Jobs != len(jobs) {
		t.Fatalf("bad counts: %+v", m)
	}
	sumJobs, maxMakespan := 0, 0.0
	for _, pc := range m.PerCluster {
		sumJobs += pc.Jobs
		if pc.Makespan > maxMakespan {
			maxMakespan = pc.Makespan
		}
	}
	if sumJobs != m.Jobs {
		t.Fatalf("per-cluster jobs sum to %d, grid says %d", sumJobs, m.Jobs)
	}
	if math.Abs(maxMakespan-m.Makespan) > 1e-9 {
		t.Fatalf("grid makespan %g but max shard makespan %g", m.Makespan, maxMakespan)
	}
	if !(m.StretchP50 <= m.StretchP95+1e-9 && m.StretchP95 <= m.StretchP99+1e-9) {
		t.Fatalf("stretch percentiles out of order: %g %g %g", m.StretchP50, m.StretchP95, m.StretchP99)
	}
	if !(m.BoundedSlowdownP50 <= m.BoundedSlowdownP95+1e-9 && m.BoundedSlowdownP95 <= m.BoundedSlowdownP99+1e-9) {
		t.Fatalf("bounded-slowdown percentiles out of order")
	}
	if m.MeanBoundedSlowdown < 1 {
		t.Fatalf("bounded slowdown below 1: %g", m.MeanBoundedSlowdown)
	}
	if m.Utilization <= 0 || m.Utilization > 1 {
		t.Fatalf("grid utilization %g outside (0, 1]", m.Utilization)
	}
	if m.MeanStretch <= 0 {
		t.Fatalf("non-positive mean stretch %g", m.MeanStretch)
	}
}

func TestGridValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty federation accepted")
	}
	if _, err := New(Config{Clusters: []ClusterSpec{{M: 0}}}); err == nil {
		t.Fatal("zero-processor cluster accepted")
	}
	if _, err := New(Config{Clusters: []ClusterSpec{{M: 8}}, AdmitBacklog: -1}); err == nil {
		t.Fatal("negative admission limit accepted")
	}
	if _, err := New(Config{Clusters: []ClusterSpec{{M: 8, Objective: cluster.Objective{Kind: cluster.ObjectiveCombined, Alpha: 7}}}}); err == nil {
		t.Fatal("invalid shard objective accepted")
	}

	f, err := New(Config{Clusters: []ClusterSpec{{M: 8}, {M: 8}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.RunContext(t.Context(), []cluster.Job{
		{Task: moldable.Sequential(1, 1, 1), Release: 0},
		{Task: moldable.Sequential(1, 1, 2), Release: 3},
	}); err == nil {
		t.Fatal("duplicate job IDs accepted")
	}
	if _, err := f.RunContext(t.Context(), []cluster.Job{{Task: moldable.Sequential(1, 1, 1), Release: -2}}); err == nil {
		t.Fatal("negative release accepted")
	}
	rep, err := f.RunContext(t.Context(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.Jobs != 0 || len(rep.Decisions) != 0 {
		t.Fatalf("empty stream produced non-empty report: %+v", rep.Metrics)
	}
}

func TestGridOnDecisionStreamsInOrder(t *testing.T) {
	jobs := stream(t, 30, 5)
	var seen []Decision
	f, err := New(Config{
		Clusters:   eightClusters(t)[:2],
		Routing:    RoundRobin(),
		OnDecision: func(d Decision) { seen = append(seen, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.RunContext(t.Context(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seen, rep.Decisions) {
		t.Fatal("OnDecision stream differs from the report's decisions")
	}
	for i := 1; i < len(seen); i++ {
		if seen[i].Release < seen[i-1].Release {
			t.Fatalf("decision %d out of stream order", i)
		}
	}
}
