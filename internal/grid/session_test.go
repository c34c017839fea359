package grid

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"bicriteria/internal/cluster"
	"bicriteria/internal/faults"
	"bicriteria/internal/moldable"
	"bicriteria/internal/reservation"
)

// TestSessionOracle is the grid half of the property the live service
// rests on: for random streams and cut points, under every routing policy
// (round-robin's cursor included), with and without node and shard
// outages and racing, on both execution paths, a session fed piece by
// piece — each piece shuffled — and advanced to each cut finishes with
// exactly RunContext's report of the whole stream, and a fork taken at a
// cut finishes with RunContext's report of what was fed so far.
func TestSessionOracle(t *testing.T) {
	sizes := []int{8, 16, 12, 32}
	migrated := 0
	for _, mk := range []func() RoutingPolicy{RoundRobin, LeastBacklog, LowerBoundAware, MoldabilityAware} {
		for _, faulted := range []bool{false, true} {
			for _, racing := range []bool{false, true} {
				name := fmt.Sprintf("%s/faults=%v/racing=%v", mk().Name(), faulted, racing)
				t.Run(name, func(t *testing.T) {
					seed := int64(len(name))
					specs := make([]ClusterSpec, len(sizes))
					for i, m := range sizes {
						perturb, err := cluster.UniformNoise(0.2, seed+int64(i))
						if err != nil {
							t.Fatal(err)
						}
						specs[i] = ClusterSpec{M: m, Perturb: perturb}
						if racing {
							specs[i].Racing = cluster.Racing{Cutoff: 2, Bandit: true, Seed: seed}
						}
					}
					specs[1].Reservations = []reservation.Reservation{{Name: "maint", Procs: 4, Start: 3, End: 9}}
					cfg := Config{Clusters: specs, Routing: mk(), AdmitBacklog: 3, Sequential: racing}
					if faulted {
						plan, err := faults.Generate(faults.Config{
							Seed: seed, Horizon: 60, Clusters: sizes,
							MTBF: 10, RepairMean: 3, ShardMTBF: 6, ShardRepairMean: 3,
						})
						if err != nil {
							t.Fatal(err)
						}
						cfg.Faults = plan
					}
					f, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(seed))
					killed := 0
					for trial := 0; trial < 2; trial++ {
						jobs := stream(t, 50, seed+int64(trial))
						rep := checkPieces(t, f, jobs, randomCuts(rng, jobs, 1+trial*2), rng)
						migrated += rep.Metrics.Migrated
						killed += rep.Metrics.Killed
					}
					if faulted && killed == 0 {
						t.Fatal("the fault plan killed nothing; the case is vacuous")
					}
				})
			}
		}
	}
	if migrated == 0 {
		t.Fatal("no shard outage drained a job in any case; the oracle never met the trap")
	}
}

// randomCuts draws k increasing cut times inside the stream's release span,
// half of them exactly on a release date.
func randomCuts(rng *rand.Rand, jobs []cluster.Job, k int) []float64 {
	last := jobs[len(jobs)-1].Release
	cuts := make([]float64, k)
	for i := range cuts {
		if i%2 == 0 {
			cuts[i] = jobs[rng.Intn(len(jobs))].Release
		} else {
			cuts[i] = rng.Float64() * last * 1.1
		}
	}
	sort.Float64s(cuts)
	return cuts
}

// checkPieces runs one oracle trial and returns the finished report.
func checkPieces(t *testing.T, f *Federation, jobs []cluster.Job, cuts []float64, rng *rand.Rand) *Report {
	t.Helper()
	ctx := context.Background()
	offline := func(jobs []cluster.Job) *Report {
		rep, err := f.RunContext(ctx, jobs)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	pieces := make([][]cluster.Job, len(cuts)+1)
	for _, j := range jobs {
		k := sort.Search(len(cuts), func(i int) bool { return j.Release < cuts[i] })
		pieces[k] = append(pieces[k], j)
	}
	for _, piece := range pieces {
		rng.Shuffle(len(piece), func(a, b int) { piece[a], piece[b] = piece[b], piece[a] })
	}
	s := f.NewSession(ctx)
	if err := s.Feed(pieces[0]...); err != nil {
		t.Fatal(err)
	}
	fed := pieces[0]
	for i, cut := range cuts {
		if err := s.AdvanceTo(cut); err != nil {
			t.Fatal(err)
		}
		for _, d := range s.Committed().Decisions {
			if !(d.Release < cut) {
				t.Fatalf("cut %g: committed decision for job %d at %g", cut, d.JobID, d.Release)
			}
		}
		if err := s.Feed(pieces[i+1]...); err != nil {
			t.Fatal(err)
		}
		fed = append(fed[:len(fed):len(fed)], pieces[i+1]...)
		got, err := s.Fork().Finish()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, offline(fed)) {
			t.Fatalf("cut %g: a fork finishes unlike the offline replay of the %d jobs fed", cut, len(fed))
		}
	}
	got, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	want := offline(jobs)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cuts %v: the session finishes unlike the offline replay", cuts)
	}
	return got
}

// TestSessionNeverFeedsADrainedJob pins the outage trap on a hand-built
// grid: round-robin sends the even jobs to shard 0 at time 0, but only
// job 0 virtually finishes before shard 0's outage at 3 — the others are
// drained at 3, after the cut, so shard 0's first batch must hold job 0
// alone.
func TestSessionNeverFeedsADrainedJob(t *testing.T) {
	var jobs []cluster.Job
	for i := 0; i < 10; i++ {
		jobs = append(jobs, cluster.Job{Task: moldable.Sequential(i, 1, 10), Release: 0})
	}
	plan := &faults.Plan{Shards: []faults.ShardOutage{{Cluster: 0, Start: 3, End: 50}}}
	f, err := New(Config{Clusters: []ClusterSpec{{M: 4}, {M: 4}}, Routing: RoundRobin(), Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	s := f.NewSession(context.Background())
	if err := s.Feed(jobs...); err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceTo(1); err != nil {
		t.Fatal(err)
	}
	if batches := s.Committed().Clusters[0].Batches; len(batches) != 1 || !reflect.DeepEqual(batches[0].Jobs, []int{0}) {
		t.Fatalf("shard 0 committed %+v, want one batch of job 0", batches)
	}
	got, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	want, err := f.RunContext(t.Context(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if want.Metrics.Migrated == 0 {
		t.Fatal("nothing migrated; the case is vacuous")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the session finishes unlike the offline replay")
	}
}

// TestForkAddsNothingBeforeTheCut pins the prefix property the live
// service's timelines rest on: on a faulted, racing stream fed whole and
// advanced to each cut t, a finished fork extends the session's committed
// report, and nothing it adds (routing decision, batch, placement, kill)
// is dated before t − moldable.Eps.
func TestForkAddsNothingBeforeTheCut(t *testing.T) {
	sizes := []int{8, 16, 12, 32}
	specs := make([]ClusterSpec, len(sizes))
	for i, m := range sizes {
		specs[i] = ClusterSpec{M: m, Racing: cluster.Racing{Cutoff: 2, Bandit: true, Seed: 9}}
	}
	plan, err := faults.Generate(faults.Config{
		Seed: 9, Horizon: 60, Clusters: sizes,
		MTBF: 10, RepairMean: 3, ShardMTBF: 6, ShardRepairMean: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{Clusters: specs, Routing: LeastBacklog(), AdmitBacklog: 3, Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	jobs := stream(t, 80, 9)
	s := f.NewSession(t.Context())
	if err := s.Feed(jobs...); err != nil {
		t.Fatal(err)
	}
	added := map[string]int{}
	for _, cut := range randomCuts(rand.New(rand.NewSource(9)), jobs, 6) {
		if err := s.AdvanceTo(cut); err != nil {
			t.Fatal(err)
		}
		committed := s.Committed()
		fork, err := s.Fork().Finish()
		if err != nil {
			t.Fatal(err)
		}
		early := func(what string, id int, at float64) {
			t.Helper()
			added[what]++
			if at < cut-moldable.Eps {
				t.Fatalf("cut %g: the fork adds a %s of job %d at %g", cut, what, id, at)
			}
		}
		n := len(committed.Decisions)
		if !hasPrefix(fork.Decisions, committed.Decisions) {
			t.Fatalf("cut %g: the fork's decisions do not extend the committed ones", cut)
		}
		for _, d := range fork.Decisions[n:] {
			early("decision", d.JobID, d.Release)
		}
		for c, crep := range fork.Clusters {
			done := committed.Clusters[c]
			nb, na := len(done.Batches), len(done.Schedule.Assignments)
			if !hasPrefix(crep.Batches, done.Batches) || !hasPrefix(crep.Schedule.Assignments, done.Schedule.Assignments) {
				t.Fatalf("cut %g: shard %d's fork does not extend its committed report", cut, c)
			}
			for _, b := range crep.Batches[nb:] {
				early("batch", b.Jobs[0], b.FireTime)
				for _, p := range b.Placements {
					early("placement", p.TaskID, p.Start)
				}
				for _, k := range b.KillEvents {
					early("kill", k.TaskID, k.Time)
				}
			}
			for _, a := range crep.Schedule.Assignments[na:] {
				early("assignment", a.TaskID, a.Start)
			}
		}
	}
	for _, what := range []string{"decision", "batch", "placement", "kill", "assignment"} {
		if added[what] == 0 {
			t.Errorf("no fork added a %s; the check is vacuous", what)
		}
	}
}

// hasPrefix reports whether long starts with the elements of short.
func hasPrefix[T any](long, short []T) bool {
	return len(long) >= len(short) && (len(short) == 0 || reflect.DeepEqual(long[:len(short)], short))
}
