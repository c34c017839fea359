package grid

import (
	"reflect"
	"testing"

	"bicriteria/internal/cluster"
	"bicriteria/internal/faults"
	"bicriteria/internal/moldable"
)

// testPlan generates a hostile plan for the 8-shard grid: node crashes on
// every shard plus shard outages.
func testPlan(t testing.TB, specs []ClusterSpec, seed int64) *faults.Plan {
	t.Helper()
	sizes := make([]int, len(specs))
	for i, s := range specs {
		sizes[i] = s.M
	}
	plan, err := faults.Generate(faults.Config{
		Seed:            seed,
		Horizon:         300,
		Clusters:        sizes,
		MTBF:            20,
		RepairMean:      6,
		ShardMTBF:       80,
		ShardRepairMean: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestGridShardOutageMigratesQueuedJobs(t *testing.T) {
	specs := []ClusterSpec{{M: 8}, {M: 8}}
	// Twenty heavy sequential jobs at t=0 split 10/10 under round-robin,
	// piling up deep virtual queues; shard 0 goes dark at t=1, so its
	// virtually unfinished jobs must drain to shard 1. A few late
	// arrivals check that the dead shard stays closed.
	var jobs []cluster.Job
	for i := 0; i < 20; i++ {
		jobs = append(jobs, cluster.Job{Task: moldable.Sequential(i, 1, 10), Release: 0})
	}
	for i := 20; i < 24; i++ {
		jobs = append(jobs, cluster.Job{Task: moldable.Sequential(i, 1, 2), Release: 2})
	}
	plan := &faults.Plan{Shards: []faults.ShardOutage{{Cluster: 0, Start: 1, End: 200}}}
	fed, err := New(Config{Clusters: specs, Routing: RoundRobin(), Faults: plan, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fed.RunContext(t.Context(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.Migrated == 0 {
		t.Fatal("no job migrated off the dead shard")
	}
	if rep.Metrics.PerCluster[0].Migrated != rep.Metrics.Migrated {
		t.Fatalf("migrations charged to the wrong shard: %+v", rep.Metrics.PerCluster)
	}
	// Migration decisions carry the flag and the outage instant as release.
	migrations := 0
	for _, d := range rep.Decisions {
		if d.Migrated {
			migrations++
			if d.Release != 1 {
				t.Fatalf("migration release %g, want the outage instant 1", d.Release)
			}
			if d.Cluster == 0 {
				t.Fatal("job migrated onto the shard that just died")
			}
		}
	}
	if migrations != rep.Metrics.Migrated {
		t.Fatalf("decision stream shows %d migrations, metrics %d", migrations, rep.Metrics.Migrated)
	}
	// No job is lost across the grid: completions plus lost cover the
	// stream exactly once.
	if rep.Metrics.Jobs+rep.Metrics.Lost != len(jobs) {
		t.Fatalf("completed %d + lost %d != submitted %d", rep.Metrics.Jobs, rep.Metrics.Lost, len(jobs))
	}
	// After the outage, arrivals during [1, 200) avoid the dead shard.
	for _, d := range rep.Decisions {
		if !d.Migrated && d.Release > 1+eps && d.Release < 200-eps && d.Cluster == 0 {
			t.Fatalf("job %d routed to the dead shard at t=%g", d.JobID, d.Release)
		}
	}
}

func TestGridFaultedZeroPlanBitIdentical(t *testing.T) {
	specs := eightClusters(t)
	jobs := stream(t, 60, 4)
	run := func(cfg Config) *Report {
		fed, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := fed.RunContext(t.Context(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	plain := run(Config{Clusters: specs, Routing: LeastBacklog()})
	empty := run(Config{
		Clusters:   specs,
		Routing:    LeastBacklog(),
		Faults:     &faults.Plan{},
		Replan:     cluster.ReplanPolicy{Kind: cluster.ReplanCheckpoint},
		MaxRetries: 2,
	})
	if !reflect.DeepEqual(plain, empty) {
		t.Fatal("an empty fault plan changed the grid report")
	}
}

func TestGridFaultedNoJobLostOrDuplicated(t *testing.T) {
	specs := eightClusters(t)
	plan := testPlan(t, specs, 6)
	jobs := stream(t, 100, 6)
	fed, err := New(Config{Clusters: specs, Routing: LeastBacklog(), AdmitBacklog: 40, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fed.RunContext(t.Context(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.Killed == 0 {
		t.Fatal("hostile plan killed nothing; the scenario is vacuous")
	}
	completed := make(map[int]int)
	for _, crep := range rep.Clusters {
		for _, a := range crep.Schedule.Assignments {
			completed[a.TaskID]++
		}
	}
	lost := make(map[int]bool)
	for _, crep := range rep.Clusters {
		for _, id := range crep.Lost {
			lost[id] = true
		}
	}
	for _, j := range jobs {
		id := j.Task.ID
		switch {
		case lost[id]:
			if completed[id] != 0 {
				t.Fatalf("lost job %d also completed", id)
			}
		case completed[id] != 1:
			t.Fatalf("job %d completed %d times", id, completed[id])
		}
	}
	if rep.Metrics.Jobs+rep.Metrics.Lost != len(jobs) {
		t.Fatalf("completed %d + lost %d != submitted %d", rep.Metrics.Jobs, rep.Metrics.Lost, len(jobs))
	}
}

// TestOneShardGridKeepsJobsAcrossShardOutage pins that a one-shard grid
// replays exactly like its cluster engine under a shard outage: with no
// other shard to migrate to, the router neither withholds the jobs the
// outage would drain nor re-releases them at the outage instant — the
// engine runs them around the whole-machine down window.
func TestOneShardGridKeepsJobsAcrossShardOutage(t *testing.T) {
	const m = 4
	var jobs []cluster.Job
	for i := 0; i < 10; i++ {
		jobs = append(jobs, cluster.Job{Task: moldable.Sequential(i, 1, 3), Release: float64(i % 3)})
	}
	plan := &faults.Plan{Shards: []faults.ShardOutage{{Cluster: 0, Start: 2, End: 9}}}
	fed, err := New(Config{Clusters: []ClusterSpec{{M: m}}, Faults: plan, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fed.RunContext(t.Context(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cluster.New(cluster.Config{M: m, Outages: plan.ClusterWindows(0, m)})
	if err != nil {
		t.Fatal(err)
	}
	session := eng.NewSession(t.Context())
	if err := session.Feed(jobs...); err != nil {
		t.Fatal(err)
	}
	want, err := session.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.Migrated != 0 {
		t.Fatalf("%d jobs migrated within a one-shard grid", rep.Metrics.Migrated)
	}
	if !reflect.DeepEqual(rep.Clusters[0], want) {
		t.Fatalf("one-shard grid differs from its engine: makespan %g vs %g, %d vs %d kills",
			rep.Clusters[0].Metrics.Makespan, want.Metrics.Makespan, rep.Clusters[0].Metrics.Killed, want.Metrics.Killed)
	}
}
