package scenario

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"bicriteria/internal/flight"
)

// racingStressScenario is an 8-shard heterogeneous grid with noise,
// faults and racing (bandit on) all enabled — the hostile end of the
// configuration space for the byte-identical-replay invariant.
func racingStressScenario() Scenario {
	return Scenario{
		Version:  Version,
		Seed:     11,
		Topology: TopologyGrid,
		Clusters: []Cluster{
			{Machines: 48}, {Machines: 32}, {Machines: 24}, {Machines: 16},
			{Machines: 16}, {Machines: 12}, {Machines: 8}, {Machines: 8},
		},
		Workload: Workload{Kind: "mixed", Jobs: 120},
		Arrivals: Arrivals{Rate: 6, Burst: 3},
		Noise:    0.2,
		Racing:   &RacingSpec{Cutoff: 2, Bandit: true},
		Faults:   &Faults{MTBF: 30, Repair: 5},
	}
}

// TestRacingDeterminismStress is the racing-mode repeatability stress:
// the 8-shard faulted grid with the portfolio race and the bandit both on
// replays concurrently (full GOMAXPROCS) and sequentially, and the
// report, the event trace and every flight timeline must serialize to the
// same bytes. Racing cancels different goroutines at different wall-clock
// moments run to run — none of that may leak into committed state.
func TestRacingDeterminismStress(t *testing.T) {
	run := func(sequential bool) (report, trace, flights []byte) {
		s := racingStressScenario()
		s.Sequential = sequential
		r, err := Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		rec := flight.NewRecorder()
		r.Flight(rec)
		rep, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var repBuf, traceBuf, flightBuf bytes.Buffer
		if err := WriteReportJSON(&repBuf, rep); err != nil {
			t.Fatal(err)
		}
		if err := WriteTrace(&traceBuf, traceJSONL, rep); err != nil {
			t.Fatal(err)
		}
		for _, id := range rec.Jobs() {
			if err := flight.FormatTimeline(&flightBuf, id, rec.Timeline(id)); err != nil {
				t.Fatal(err)
			}
		}
		if err := rec.WriteJSONL(&flightBuf); err != nil {
			t.Fatal(err)
		}
		// The stress must exercise the race, not just tolerate the block:
		// at least one batch has to cut off a straggler.
		cut := 0
		for _, ev := range rec.Events() {
			if ev.Kind == flight.KindBatched {
				cut += len(ev.CutOff)
			}
		}
		if cut == 0 {
			t.Fatal("racing stress scenario never cut off a portfolio member")
		}
		return repBuf.Bytes(), traceBuf.Bytes(), flightBuf.Bytes()
	}

	old := runtime.GOMAXPROCS(runtime.NumCPU())
	defer runtime.GOMAXPROCS(old)
	report, trace, flights := run(false)
	for i := 0; i < 2; i++ {
		rep2, trace2, flights2 := run(false)
		if !bytes.Equal(rep2, report) {
			t.Fatalf("concurrent racing replay %d: report bytes differ", i+2)
		}
		if !bytes.Equal(trace2, trace) {
			t.Fatalf("concurrent racing replay %d: trace bytes differ", i+2)
		}
		if !bytes.Equal(flights2, flights) {
			t.Fatalf("concurrent racing replay %d: flight bytes differ", i+2)
		}
	}
	seqRep, seqTrace, seqFlights := run(true)
	if !bytes.Equal(seqRep, report) {
		t.Fatal("sequential racing replay: report bytes differ from concurrent")
	}
	if !bytes.Equal(seqTrace, trace) {
		t.Fatal("sequential racing replay: trace bytes differ from concurrent")
	}
	if !bytes.Equal(seqFlights, flights) {
		t.Fatal("sequential racing replay: flight timelines differ from concurrent")
	}
}
