package bicriteria_test

import (
	"context"
	"fmt"

	"bicriteria"
)

// ExampleDEMT schedules a tiny hand-built instance with the paper's
// bi-criteria algorithm. Two sequential tasks and one perfectly moldable
// task share two processors; the optimal makespan of 4 is reached.
func ExampleDEMT() {
	inst := bicriteria.NewInstance(2, []bicriteria.Task{
		bicriteria.NewSequentialTask(0, 1, 2),
		bicriteria.NewSequentialTask(1, 1, 2),
		bicriteria.NewPerfectlyMoldableTask(2, 3, 4, 2),
	})
	res, err := bicriteria.DEMT(context.Background(), inst, nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("makespan %.0f\n", res.Schedule.Makespan())
	fmt.Printf("weighted completion %.0f\n", res.Schedule.WeightedCompletion(inst))
	fmt.Println("valid:", res.Schedule.Validate(inst, nil) == nil)
	// Output:
	// makespan 4
	// weighted completion 14
	// valid: true
}

// ExampleMakespanLowerBound shows the certified makespan lower bound for a
// single perfectly moldable task: the work divided by the machine size.
func ExampleMakespanLowerBound() {
	inst := bicriteria.NewInstance(4, []bicriteria.Task{
		bicriteria.NewPerfectlyMoldableTask(0, 1, 12, 4),
	})
	fmt.Printf("%.0f\n", bicriteria.MakespanLowerBound(inst))
	// Output:
	// 3
}

// ExampleGang shows the gang baseline: every task runs on the whole
// machine, one after the other, in Smith order.
func ExampleGang() {
	inst := bicriteria.NewInstance(2, []bicriteria.Task{
		bicriteria.NewPerfectlyMoldableTask(0, 1, 6, 2), // p(2)=3, ratio 1/3
		bicriteria.NewPerfectlyMoldableTask(1, 4, 4, 2), // p(2)=2, ratio 2
	})
	s, err := bicriteria.Gang(context.Background(), inst)
	if err != nil {
		fmt.Println(err)
		return
	}
	// Task 1 has the better weight/time ratio so it goes first.
	fmt.Printf("task 1 completes at %.0f\n", s.Assignment(1).End())
	fmt.Printf("task 0 completes at %.0f\n", s.Assignment(0).End())
	fmt.Printf("makespan %.0f\n", s.Makespan())
	// Output:
	// task 1 completes at 2
	// task 0 completes at 5
	// makespan 5
}

// ExampleGenerateWorkload builds one of the paper's synthetic workloads
// and reports its shape.
func ExampleGenerateWorkload() {
	inst, err := bicriteria.GenerateWorkload(bicriteria.WorkloadConfig{
		Kind: bicriteria.WorkloadHighlyParallel,
		M:    16,
		N:    10,
		Seed: 1,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("tasks:", inst.N())
	fmt.Println("processors:", inst.M)
	// Output:
	// tasks: 10
	// processors: 16
}

// ExampleRunGridContext runs the on-line batch framework of section 2.2 of
// the paper (a one-shard grid whose batch-on-idle cluster has DEMT as its
// only portfolio member) on two jobs whose second submission arrives while
// the first batch is running.
func ExampleRunGridContext() {
	jobs := []bicriteria.OnlineJob{
		{Task: bicriteria.NewSequentialTask(0, 1, 4), Release: 0},
		{Task: bicriteria.NewSequentialTask(1, 1, 2), Release: 1},
	}
	rep, err := bicriteria.RunGridContext(context.Background(), bicriteria.GridConfig{
		Clusters: []bicriteria.GridClusterSpec{{
			M:         2,
			Portfolio: []bicriteria.ClusterAlgorithm{bicriteria.ClusterDEMTAlgorithm(nil)},
			Policy:    bicriteria.BatchOnIdle(),
		}},
	}, jobs)
	if err != nil {
		fmt.Println(err)
		return
	}
	res := rep.Clusters[0]
	fmt.Println("batches:", len(res.Batches))
	fmt.Printf("second batch starts at %.0f\n", res.Batches[1].FireTime)
	fmt.Printf("makespan %.0f\n", res.Metrics.Makespan)
	// Output:
	// batches: 2
	// second batch starts at 4
	// makespan 6
}
