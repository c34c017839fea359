package scenario

import (
	"errors"
	"strings"
	"testing"
)

// base returns a minimal valid grid scenario for mutation tests.
func base() Scenario {
	return Scenario{
		Version:  Version,
		Seed:     1,
		Topology: TopologyGrid,
		Clusters: []Cluster{{Machines: 16}, {Machines: 8}},
		Workload: Workload{Kind: "mixed", Jobs: 20},
		Arrivals: Arrivals{Rate: 4},
	}
}

// TestValidateFieldPaths pins that every eager check fails with a
// *ValidationError naming the offending field path.
func TestValidateFieldPaths(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Scenario)
		field  string
	}{
		{"version", func(s *Scenario) { s.Version = 99 }, "version"},
		{"topology", func(s *Scenario) { s.Topology = "ring" }, "topology"},
		{"single needs one cluster", func(s *Scenario) { s.Topology = TopologySingle }, "topology"},
		{"no clusters", func(s *Scenario) { s.Clusters = nil }, "clusters"},
		{"machines", func(s *Scenario) { s.Clusters[1].Machines = 0 }, "clusters[1].machines"},
		{"reservation procs", func(s *Scenario) {
			s.Clusters[0].Reservations = []Reservation{{Procs: 0, Start: 0, End: 10}}
		}, "clusters[0].reservations[0].procs"},
		{"reservation window", func(s *Scenario) {
			s.Clusters[0].Reservations = []Reservation{{Procs: 2, Start: 10, End: 5}}
		}, "clusters[0].reservations[0]"},
		{"workload kind", func(s *Scenario) { s.Workload.Kind = "nonsense" }, "workload.kind"},
		{"jobs", func(s *Scenario) { s.Workload.Jobs = 0 }, "workload.jobs"},
		{"rate", func(s *Scenario) { s.Arrivals.Rate = 0 }, "arrivals.rate"},
		{"burst", func(s *Scenario) { s.Arrivals.Burst = -1 }, "arrivals.burst"},
		{"interarrival", func(s *Scenario) { s.Arrivals.Interarrival = "zipf" }, "arrivals.interarrival"},
		{"runtime tail", func(s *Scenario) { s.Arrivals.RuntimeTail = "zipf" }, "arrivals.runtime_tail"},
		{"file and trace", func(s *Scenario) { s.Arrivals.File, s.Arrivals.Trace = "a", "b" }, "arrivals"},
		{"batch policy", func(s *Scenario) { s.Batch.Policy = "cron" }, "batch.policy"},
		{"interval", func(s *Scenario) { s.Batch.Interval = -1 }, "batch.interval"},
		{"objective", func(s *Scenario) { s.Objective.Kind = "latency" }, "objective.kind"},
		{"alpha", func(s *Scenario) { s.Objective.Alpha = 2 }, "objective.alpha"},
		{"routing", func(s *Scenario) { s.Routing.Policy = "random" }, "routing.policy"},
		{"admit backlog", func(s *Scenario) { s.Routing.AdmitBacklog = -1 }, "routing.admit_backlog"},
		{"noise", func(s *Scenario) { s.Noise = 1.5 }, "noise"},
		{"fault mtbf", func(s *Scenario) { s.Faults = &Faults{MTBF: -1} }, "faults.mtbf"},
		{"replan", func(s *Scenario) { s.Faults = &Faults{Replan: "undo"} }, "faults.replan"},
		{"checkpoint credit", func(s *Scenario) { s.Faults = &Faults{CheckpointCredit: 2} }, "faults.checkpoint_credit"},
		{"service speedup", func(s *Scenario) { s.Service = &Service{Speedup: -1} }, "service.speedup"},
		{"service queue", func(s *Scenario) { s.Service = &Service{QueueDepth: -1} }, "service.queue_depth"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mutate(&s)
			err := s.validate()
			if err == nil {
				t.Fatal("bad scenario validated")
			}
			var verr *ValidationError
			if !errors.As(err, &verr) {
				t.Fatalf("error is not a *ValidationError: %v", err)
			}
			if verr.Field != tc.field {
				t.Fatalf("field path %q, want %q (err: %v)", verr.Field, tc.field, err)
			}
		})
	}
}

// TestValidateAccepts pins that representative good scenarios pass.
func TestValidateAccepts(t *testing.T) {
	good := []Scenario{
		base(),
		{
			Version: Version, Seed: 3, Topology: TopologySingle,
			Clusters: []Cluster{{Machines: 32, Reservations: []Reservation{{Procs: 4, Start: 5, End: 25}}}},
			Workload: Workload{Kind: "cirne", Jobs: 10},
			Arrivals: Arrivals{Rate: 1, Burst: 4, Interarrival: "lognormal", RuntimeTail: "weibull"},
			Batch:    Batch{Policy: "adaptive"},
			Faults:   &Faults{MTBF: 20, Replan: "checkpoint", CheckpointCredit: 0.5},
			Service:  &Service{Speedup: 60, SubmitRate: 100},
		},
		{
			Version: Version, Topology: TopologyGrid,
			Clusters: []Cluster{{Machines: 8}},
			Arrivals: Arrivals{File: "stream.json"}, // replayed: no jobs/rate required
		},
	}
	for i, s := range good {
		if err := s.validate(); err != nil {
			t.Fatalf("scenario %d rejected: %v", i, err)
		}
	}
}

// TestNewOptions builds a scenario through the functional options and
// checks defaults, inference and eager validation.
func TestNewOptions(t *testing.T) {
	s, err := New(
		WithName("opts"),
		WithSeed(7),
		WithClusters(64, 32),
		WithReservation(0, 8, 10, 20),
		WithWorkload("mixed", 50),
		WithArrivals(3, 2),
		func(s *Scenario) {
			s.Arrivals.Interarrival, s.Arrivals.InterarrivalShape = "lognormal", 1.2
			s.Arrivals.RuntimeTail, s.Arrivals.RuntimeTailShape = "weibull", 0.7
		},
		WithBatchPolicy("interval", 40, 0, 0),
		WithObjective("combined", 0.25),
		WithRouting("round-robin", 12),
		WithNoise(0.1),
		WithSequential(true),
		WithFaults(Faults{MTBF: 30}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if s.Version != Version {
		t.Fatalf("version %d", s.Version)
	}
	if s.Topology != TopologyGrid {
		t.Fatalf("two clusters should infer grid, got %q", s.Topology)
	}
	if len(s.Clusters[0].Reservations) != 1 || s.Clusters[0].Reservations[0].Procs != 8 {
		t.Fatalf("reservation lost: %+v", s.Clusters)
	}
	if s.Faults == nil || s.Faults.MTBF != 30 {
		t.Fatalf("faults section lost: %+v", s.Faults)
	}

	single, err := New(WithClusters(16), WithWorkload("mixed", 5), WithArrivals(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if single.Topology != TopologySingle {
		t.Fatalf("one cluster should infer single, got %q", single.Topology)
	}

	if _, err := New(WithClusters(0)); err == nil {
		t.Fatal("zero-processor cluster accepted")
	}
}

// TestSubSeedDerivation pins the documented sub-seed derivation: the
// fault seed is Seed ^ FaultSeedSalt unless pinned explicitly.
func TestSubSeedDerivation(t *testing.T) {
	s := base()
	if got, want := s.faultSeed(), int64(1)^FaultSeedSalt; got != want {
		t.Fatalf("derived fault seed %d, want %d", got, want)
	}
	s.Faults = &Faults{Seed: 42}
	if got := s.faultSeed(); got != 42 {
		t.Fatalf("explicit fault seed %d, want 42", got)
	}
}

// TestValidationErrorRendering pins the "path: message" error shape.
func TestValidationErrorRendering(t *testing.T) {
	s := base()
	s.Clusters[1].Machines = -3
	err := s.validate()
	if err == nil {
		t.Fatal("no error")
	}
	if !strings.HasPrefix(err.Error(), "clusters[1].machines: ") {
		t.Fatalf("unexpected rendering: %q", err.Error())
	}
}

// TestWithReservationOrderIndependent pins the review fix: a reservation
// attached before its cluster is declared survives WithClusters, and a
// reservation on an index no WithClusters ever fills fails validation
// instead of being silently dropped.
func TestWithReservationOrderIndependent(t *testing.T) {
	s, err := New(
		WithReservation(0, 4, 50, 120), // before WithClusters
		WithClusters(16, 8),
		WithWorkload("mixed", 10),
		WithArrivals(2, 0),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Clusters[0].Reservations) != 1 || s.Clusters[0].Reservations[0].Procs != 4 {
		t.Fatalf("reservation placed before WithClusters was dropped: %+v", s.Clusters)
	}

	_, err = New(
		WithClusters(16),
		WithReservation(3, 4, 50, 120), // index never declared
		WithWorkload("mixed", 10),
		WithArrivals(2, 0),
	)
	if err == nil {
		t.Fatal("reservation on an undeclared cluster index validated")
	}
	var verr *ValidationError
	if !errors.As(err, &verr) || !strings.Contains(verr.Field, "machines") {
		t.Fatalf("want a clusters[i].machines validation error, got %v", err)
	}
}
