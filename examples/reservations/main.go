// Reservations: the first "on-going work" listed in the paper's concluding
// remarks is the reservation of nodes, which temporarily reduces the size
// of the cluster. This example schedules a workload around two reserved
// windows (a maintenance slot and an advance reservation for another user),
// checks that no job touches a reserved node, and finally exports the
// resulting run as an SWF trace fragment.
//
// Run with:
//
//	go run ./examples/reservations
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"bicriteria"
)

func main() {
	const processors = 32
	inst, err := bicriteria.GenerateWorkload(bicriteria.WorkloadConfig{
		Kind: bicriteria.WorkloadMixed,
		M:    processors,
		N:    30,
		Seed: 13,
	})
	if err != nil {
		log.Fatal(err)
	}

	reservations := []bicriteria.Reservation{
		{Name: "maintenance", Procs: 8, Start: 0, End: 6},
		{Name: "advance-reservation", Procs: 16, Start: 10, End: 14},
	}

	res, err := bicriteria.ScheduleWithReservations(context.Background(), inst, reservations, nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := res.Schedule.Validate(inst, nil); err != nil {
		log.Fatalf("invalid schedule: %v", err)
	}
	if err := bicriteria.ValidateReservations(res.Schedule, reservations, res.Blocked); err != nil {
		log.Fatalf("a job entered a reserved window: %v", err)
	}

	fmt.Printf("Scheduling %d jobs on %d CPUs around %d reservations\n\n", inst.N(), processors, len(reservations))
	for i, r := range reservations {
		fmt.Printf("  %-22s blocks %2d CPUs during [%5.1f, %5.1f) -> nodes %v...\n",
			r.Name, r.Procs, r.Start, r.End, res.Blocked[i][:min(3, len(res.Blocked[i]))])
	}

	unreserved := res.DEMT.Schedule
	fmt.Printf("\n  makespan without reservations : %.2f\n", unreserved.Makespan())
	fmt.Printf("  makespan with reservations    : %.2f\n", res.Schedule.Makespan())
	fmt.Printf("  weighted completion without   : %.0f\n", unreserved.WeightedCompletion(inst))
	fmt.Printf("  weighted completion with      : %.0f\n", res.Schedule.WeightedCompletion(inst))
	fmt.Printf("  (reservations can only delay the jobs; the plan stays feasible)\n\n")

	// Export the run as an SWF fragment (all jobs submitted at time 0).
	records := bicriteria.ScheduleToTrace(inst, res.Schedule, nil)
	fmt.Printf("SWF export of the first jobs:\n")
	if err := bicriteria.WriteTrace(os.Stdout, records[:min(5, len(records))]); err != nil {
		log.Fatal(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
