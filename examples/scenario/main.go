// Command scenario demonstrates the Scenario API v2: one declarative,
// versioned spec that compiles to any layer of the stack.
//
// The program builds a grid scenario with functional options, compiles
// it, streams routing decisions and batch commits through an Observer
// while the replay runs (with a cancellable context), prints the unified
// report, and round-trips the spec through its JSON form — the same file
// format `bicrit run` consumes.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"bicriteria"
)

func main() {
	// One spec for the whole experiment: a three-shard grid, a bursty
	// mixed workload, adaptive batching, noise, and a pinch of faults.
	scn, err := bicriteria.NewScenario(
		bicriteria.ScenarioWithName("quickstart-grid"),
		bicriteria.ScenarioWithSeed(7),
		bicriteria.ScenarioWithClusters(32, 16, 16),
		bicriteria.ScenarioWithWorkload("mixed", 80),
		bicriteria.ScenarioWithArrivals(5, 4),
		bicriteria.ScenarioWithBatchPolicy("adaptive", 0, 0, 0),
		bicriteria.ScenarioWithRouting("least-backlog", 40),
		bicriteria.ScenarioWithNoise(0.15),
		bicriteria.ScenarioWithFaults(bicriteria.ScenarioFaults{MTBF: 40, Repair: 8}),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Compile builds the grid federation (a single cluster would be a
	// one-shard grid) and validates everything eagerly: a bad spec dies
	// now, with the exact field path, not mid-replay.
	runner, err := bicriteria.Compile(scn)
	if err != nil {
		log.Fatal(err)
	}

	// The Observer streams events while the replay runs.
	migrations := 0
	runner.Observe(bicriteria.ScenarioObserver{
		Batch: func(shard int, br bicriteria.ClusterBatchReport) {
			if br.Index == 0 {
				fmt.Printf("shard %d committed its first batch (%d jobs, winner %s)\n",
					shard, len(br.Jobs), br.Winner)
			}
		},
		Decision: func(d bicriteria.GridDecision) {
			if d.Migrated {
				migrations++
			}
		},
	})

	// Run takes a context: cancel it and the replay aborts between
	// batches, no deadlock, errors.Is(err, context.Canceled).
	rep, err := runner.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmakespan %.2f  weighted completion %.2f  utilization %.1f%%  migrations %d\n\n",
		rep.Makespan(), rep.WeightedCompletion(), 100*rep.Utilization(), migrations)

	// The same spec round-trips through JSON — the file `bicrit run`
	// consumes.
	dir, err := os.MkdirTemp("", "scenario")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "scenario.json")
	if err := bicriteria.SaveScenario(path, scn); err != nil {
		log.Fatal(err)
	}
	loaded, err := bicriteria.LoadScenario(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("saved and reloaded scenario %q (version %d, topology %s)\n",
		loaded.Name, loaded.Version, loaded.Topology)
	fmt.Println("replay it anytime with: bicrit run", path)

	// Validation errors carry field paths.
	bad := scn
	bad.Clusters = append([]bicriteria.ScenarioCluster(nil), scn.Clusters...)
	bad.Clusters[2] = bicriteria.ScenarioCluster{Machines: -1}
	if _, err := bicriteria.Compile(bad); err != nil {
		fmt.Println("compile-time validation:", err)
	}
}
