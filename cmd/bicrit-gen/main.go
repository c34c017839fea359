// Command bicrit-gen generates synthetic moldable-task workloads and, in
// its second life, drives them against a live scheduler service.
//
// Three modes:
//
//   - Instance mode (default): generate an off-line instance following the
//     models of the paper's evaluation (section 4.1) and write it as JSON.
//
//     bicrit-gen -kind cirne -m 200 -n 100 -seed 7 -o workload.json
//
//   - Arrival-stream mode (-arrivals): generate an on-line job stream —
//     tasks plus renewal-process submission times, optionally bursty and
//     heavy-tailed — and save it so the same stream can feed a scenario's
//     arrivals.file (bicrit run) and the live load generator.
//
//     bicrit-gen -arrivals stream.json -m 64 -n 300 -rate 6 -burst 8 -arrival lognormal
//
//   - Load-generator mode (-target): replay an arrival stream (generated,
//     or loaded with -in) against a running bicrit serve instance over
//     HTTP, pacing submissions by the stream's inter-arrival gaps scaled
//     by -speedup (0 submits as fast as possible), chunking with -bulk,
//     honoring 429 Retry-After back-pressure, and optionally draining the
//     server at the end.
//
//     bicrit-gen -target http://localhost:8080 -n 200 -rate 6 -speedup 60 -bulk 8 -drain
//     bicrit-gen -target http://localhost:8080 -in stream.json -speedup 60
//
// # Seed derivation
//
// The single -seed flag deterministically derives every random stream, so
// one seed names one complete experiment:
//
//   - the task stream (sizes, weights, time vectors) draws from seed
//     itself;
//   - the arrival instants draw from seed ^ bicriteria.ArrivalSeedSalt;
//   - the runtime-tail factors draw from seed ^ bicriteria.RuntimeSeedSalt;
//   - the fault plan (-faults sidecar) draws from
//     bicriteria.ScenarioFaultSeed(seed) = seed ^ ScenarioFaultSeedSalt.
//
// Earlier versions had no fault sub-seed at all: downstream CLIs reused
// the raw workload seed for the fault generator, correlating the failure
// stream with the task stream the salts exist to decorrelate. The
// -faults sidecar (and the scenario compiler) use the derived sub-seed,
// and -fault-seed (a scenario's faults.seed) pins an explicit value
// everywhere.
//
//	bicrit-gen -arrivals stream.json -m 64 -n 300 -rate 6 \
//	    -faults plan.json -fault-mtbf 25 -fault-repair 5
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"bicriteria"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bicrit-gen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bicrit-gen", flag.ContinueOnError)
	kindFlag := fs.String("kind", "cirne", "workload kind: weakly-parallel, highly-parallel, mixed or cirne")
	m := fs.Int("m", 200, "number of processors")
	n := fs.Int("n", 100, "number of tasks")
	seed := fs.Int64("seed", 1, "master seed; the task, arrival, runtime-tail and fault streams all derive from it (see the command doc)")
	outPath := fs.String("o", "", "output file for instance mode (default: stdout)")
	arrivalsPath := fs.String("arrivals", "", "arrival-stream mode: write an on-line job stream to this file")
	rate := fs.Float64("rate", 4, "arrival stream: mean job arrival rate (jobs per time unit)")
	burst := fs.Int("burst", 1, "arrival stream: burst size (jobs sharing one submission instant)")
	arrivalFlag := fs.String("arrival", "exponential", "arrival stream: inter-arrival law (exponential, lognormal or weibull)")
	arrivalShape := fs.Float64("arrival-shape", 0, "arrival stream: lognormal sigma or weibull shape (0 = default)")
	runtimeFlag := fs.String("runtime-tail", "default", "arrival stream: heavy-tailed runtime scaling (default, lognormal or weibull)")
	runtimeShape := fs.Float64("runtime-shape", 0, "arrival stream: shape of the runtime scaling law (0 = default)")
	faultsPath := fs.String("faults", "", "arrival-stream mode: also write the stream's fault plan (derived fault sub-seed) to this file")
	faultMTBF := fs.Float64("fault-mtbf", 0, "fault plan: mean time between failures per node (0 = no node faults)")
	faultShape := fs.Float64("fault-shape", 0, "fault plan: Weibull shape of the failure law (0 = default)")
	faultRepair := fs.Float64("fault-repair", 0, "fault plan: mean node repair duration (0 = mtbf/10)")
	faultSeed := fs.Int64("fault-seed", 0, "fault plan: explicit seed (0 = derive seed^ScenarioFaultSeedSalt)")
	faultCorrMTBF := fs.Float64("fault-corr-mtbf", 0, "fault plan: mean time between correlated group failures (0 = none)")
	faultCorrSize := fs.Int("fault-corr-size", 0, "fault plan: nodes per correlated failure group (0 = quarter of the machine)")
	shardMTBF := fs.Float64("shard-mtbf", 0, "fault plan: mean time between whole-machine outages (0 = none)")
	shardRepair := fs.Float64("shard-repair", 0, "fault plan: mean whole-machine outage duration (0 = shard-mtbf/10)")
	target := fs.String("target", "", "load-generator mode: base URL of a running bicrit serve instance")
	inPath := fs.String("in", "", "load-generator mode: replay this arrival file instead of generating")
	speedup := fs.Float64("speedup", 0, "load generator: virtual time units per wall second for pacing (0 = submit as fast as possible); match the server's -speedup")
	bulk := fs.Int("bulk", 1, "load generator: jobs per POST /jobs request")
	drain := fs.Bool("drain", false, "load generator: drain the server after the replay and print the final report")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *target != "" {
		arrivals, err := loadOrGenerate(*inPath, *kindFlag, *m, *n, *seed, *rate, *burst,
			*arrivalFlag, *arrivalShape, *runtimeFlag, *runtimeShape)
		if err != nil {
			return err
		}
		return replayAgainst(out, *target, arrivals, *speedup, *bulk, *drain)
	}
	if *arrivalsPath != "" {
		arrivals, err := generateArrivals(*kindFlag, *m, *n, *seed, *rate, *burst,
			*arrivalFlag, *arrivalShape, *runtimeFlag, *runtimeShape)
		if err != nil {
			return err
		}
		if err := bicriteria.SaveArrivals(*arrivalsPath, *m, arrivals); err != nil {
			return err
		}
		horizon := 0.0
		if len(arrivals) > 0 {
			horizon = arrivals[len(arrivals)-1].Submit
		}
		fmt.Fprintf(out, "wrote %d arrivals over [0, %.2f] for %d processors to %s\n",
			len(arrivals), horizon, *m, *arrivalsPath)
		if *faultsPath != "" {
			if err := writeFaultPlan(out, *faultsPath, *m, arrivals, faultConfig{
				seed: *seed, explicitSeed: *faultSeed,
				mtbf: *faultMTBF, shape: *faultShape, repair: *faultRepair,
				corrMTBF: *faultCorrMTBF, corrSize: *faultCorrSize,
				shardMTBF: *shardMTBF, shardRepair: *shardRepair,
			}); err != nil {
				return err
			}
		}
		return nil
	}
	if *faultsPath != "" {
		return fmt.Errorf("-faults needs -arrivals (the plan's horizon is estimated from the stream)")
	}

	kind, err := bicriteria.ParseWorkloadKind(*kindFlag)
	if err != nil {
		return err
	}
	inst, err := bicriteria.GenerateWorkload(bicriteria.WorkloadConfig{Kind: kind, M: *m, N: *n, Seed: *seed})
	if err != nil {
		return err
	}
	if *outPath == "" {
		return bicriteria.WriteInstance(out, inst)
	}
	if err := bicriteria.SaveInstance(*outPath, inst); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %d tasks on %d processors (%s workload) to %s\n", inst.N(), inst.M, kind, *outPath)
	return nil
}

// faultConfig bundles the fault-plan flags.
type faultConfig struct {
	seed, explicitSeed     int64
	mtbf, shape, repair    float64
	corrMTBF               float64
	corrSize               int
	shardMTBF, shardRepair float64
}

// faultPlanFile is the versioned on-disk wrapper of a generated fault
// plan: the plan itself plus the provenance (seed, machine) that lets a
// reader reproduce it.
type faultPlanFile struct {
	Version    int                    `json:"version"`
	Seed       int64                  `json:"seed"`
	Processors int                    `json:"processors"`
	Plan       *bicriteria.FaultsPlan `json:"plan"`
}

// writeFaultPlan generates the arrival stream's fault plan with the
// derived fault sub-seed (seed ^ ScenarioFaultSeedSalt, unless -fault-seed
// pins one) and writes it as versioned JSON.
func writeFaultPlan(out io.Writer, path string, m int, arrivals []bicriteria.Arrival, fc faultConfig) error {
	fseed := fc.explicitSeed
	if fseed == 0 {
		fseed = bicriteria.ScenarioFaultSeed(fc.seed)
	}
	plan, err := bicriteria.GenerateFaultsForJobs(bicriteria.FaultsConfig{
		Seed:            fseed,
		Clusters:        []int{m},
		MTBF:            fc.mtbf,
		Shape:           fc.shape,
		RepairMean:      fc.repair,
		CorrelatedMTBF:  fc.corrMTBF,
		CorrelatedSize:  fc.corrSize,
		ShardMTBF:       fc.shardMTBF,
		ShardRepairMean: fc.shardRepair,
	}, bicriteria.ArrivalJobs(arrivals))
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	err = enc.Encode(faultPlanFile{Version: 1, Seed: fseed, Processors: m, Plan: plan})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote fault plan (%d node outages, %d shard outages, fault seed %d) to %s\n",
		len(plan.Nodes), len(plan.Shards), fseed, path)
	return nil
}

func generateArrivals(kind string, m, n int, seed int64, rate float64, burst int,
	arrival string, arrivalShape float64, runtimeTail string, runtimeShape float64) ([]bicriteria.Arrival, error) {
	k, err := bicriteria.ParseWorkloadKind(kind)
	if err != nil {
		return nil, err
	}
	arrivalDist, err := bicriteria.ParseArrivalDistribution(arrival)
	if err != nil {
		return nil, err
	}
	runtimeDist, err := bicriteria.ParseArrivalDistribution(runtimeTail)
	if err != nil {
		return nil, err
	}
	return bicriteria.GenerateArrivals(bicriteria.ArrivalConfig{
		Workload:          bicriteria.WorkloadConfig{Kind: k, M: m, N: n, Seed: seed},
		Rate:              rate,
		BurstSize:         burst,
		Interarrival:      arrivalDist,
		InterarrivalShape: arrivalShape,
		RuntimeTail:       runtimeDist,
		RuntimeTailShape:  runtimeShape,
	})
}

func loadOrGenerate(inPath, kind string, m, n int, seed int64, rate float64, burst int,
	arrival string, arrivalShape float64, runtimeTail string, runtimeShape float64) ([]bicriteria.Arrival, error) {
	if inPath == "" {
		return generateArrivals(kind, m, n, seed, rate, burst, arrival, arrivalShape, runtimeTail, runtimeShape)
	}
	arrivals, _, err := bicriteria.LoadArrivals(inPath)
	return arrivals, err
}

// replayAgainst plays the arrival stream against a live scheduler service:
// the wall-clock load generator half of the serve layer's test story.
func replayAgainst(out io.Writer, target string, arrivals []bicriteria.Arrival, speedup float64, bulk int, drain bool) error {
	if bulk < 1 {
		bulk = 1
	}
	client := &http.Client{Timeout: 60 * time.Second}
	start := time.Now()
	submitted, retries := 0, 0
	for i := 0; i < len(arrivals); {
		// Pacing waits for the chunk's first arrival only: later jobs of
		// the chunk are submitted a little early, which bulk clients do on
		// a real front door too.
		j := min(i+bulk, len(arrivals))
		chunk := arrivals[i:j]
		if speedup > 0 {
			due := time.Duration(chunk[0].Submit / speedup * float64(time.Second))
			if wait := due - time.Since(start); wait > 0 {
				time.Sleep(wait)
			}
		}
		specs := make([]bicriteria.ServeJobSpec, len(chunk))
		for k, a := range chunk {
			specs[k] = bicriteria.ServeJobSpec{
				ID: a.Task.ID, Name: a.Task.Name, Weight: a.Task.Weight, Times: a.Task.Times,
			}
		}
		n, r, err := postChunk(client, target, specs)
		if err != nil {
			return err
		}
		submitted += n
		retries += r
		i = j
	}
	fmt.Fprintf(out, "replayed %d jobs against %s (%d rate-limited retries)\n", submitted, target, retries)
	if !drain {
		return nil
	}
	resp, err := client.Post(target+"/drain", "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("drain returned status %d", resp.StatusCode)
	}
	var final bicriteria.ServeFinalReport
	if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
		return err
	}
	met := final.Metrics
	fmt.Fprintf(out, "drained %d jobs at virtual time %.2f (policy %s)\n", final.Jobs, final.VirtualNow, final.Policy)
	fmt.Fprintf(out, "  makespan %.2f  weighted completion %.2f  mean stretch %.2f  utilization %.1f%%\n",
		met.Makespan, met.WeightedCompletion, met.MeanStretch, 100*met.Utilization)
	return nil
}

// postChunk submits one bulk request, honoring 429 Retry-After hints.
func postChunk(client *http.Client, target string, specs []bicriteria.ServeJobSpec) (submitted, retries int, err error) {
	body, err := json.Marshal(map[string]any{"jobs": specs})
	if err != nil {
		return 0, 0, err
	}
	for attempt := 0; attempt < 50; attempt++ {
		resp, err := client.Post(target+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return submitted, retries, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return submitted, retries, err
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			var ack struct {
				Accepted []bicriteria.ServeAccepted `json:"accepted"`
			}
			if err := json.Unmarshal(raw, &ack); err != nil {
				return submitted, retries, err
			}
			return submitted + len(ack.Accepted), retries, nil
		case http.StatusTooManyRequests:
			retries++
			wait := time.Second
			if s := resp.Header.Get("Retry-After"); s != "" {
				if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
					wait = time.Duration(secs) * time.Second
				}
			}
			if wait < 10*time.Millisecond {
				wait = 10 * time.Millisecond
			}
			if wait > 5*time.Second {
				wait = 5 * time.Second
			}
			// A saturated front door may have admitted a prefix of the
			// chunk before rejecting: resubmit only the remainder.
			var partial struct {
				Accepted []bicriteria.ServeAccepted `json:"accepted"`
			}
			if err := json.Unmarshal(raw, &partial); err == nil && len(partial.Accepted) > 0 {
				submitted += len(partial.Accepted)
				done := make(map[int]bool, len(partial.Accepted))
				for _, acc := range partial.Accepted {
					done[acc.ID] = true
				}
				var rest []bicriteria.ServeJobSpec
				for _, spec := range specs {
					if !done[spec.ID] {
						rest = append(rest, spec)
					}
				}
				specs = rest
				if len(specs) == 0 {
					return submitted, retries, nil
				}
				if body, err = json.Marshal(map[string]any{"jobs": specs}); err != nil {
					return submitted, retries, err
				}
			}
			time.Sleep(wait)
		default:
			return submitted, retries, fmt.Errorf("POST /jobs returned status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		}
	}
	return submitted, retries, fmt.Errorf("giving up after %d rate-limited attempts", 50)
}
