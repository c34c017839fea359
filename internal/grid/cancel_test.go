package grid

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"bicriteria/internal/cluster"
	"bicriteria/internal/workload"
)

// cancelJobs builds a stream long enough that every shard commits several
// batches.
func cancelJobs(t *testing.T, n int) []cluster.Job {
	t.Helper()
	arrivals, err := workload.GenerateArrivals(workload.ArrivalConfig{
		Workload: workload.Config{Kind: workload.Mixed, M: 16, N: n, Seed: 11},
		Rate:     6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cluster.JobsFromArrivals(arrivals)
}

// TestRunContextCancelMidReplay aborts a concurrent grid run from inside
// the replay (the first batch event cancels the context) and checks that
// the run returns promptly with the context error instead of
// deadlocking on the shard WaitGroup. Run under -race in CI.
func TestRunContextCancelMidReplay(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	cfg := Config{
		Clusters: []ClusterSpec{{M: 16}, {M: 8}, {M: 8}},
		OnBatch: func(int, cluster.BatchReport) {
			// Fires concurrently from the shard goroutines; cancel exactly
			// once, mid-replay.
			once.Do(cancel)
		},
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	jobs := cancelJobs(t, 120)

	done := make(chan struct{})
	var rep *Report
	var runErr error
	go func() {
		rep, runErr = f.RunContext(ctx, jobs)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("cancelled grid run never returned (deadlock)")
	}
	if runErr == nil {
		t.Fatalf("cancelled run returned no error (report: %+v)", rep)
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", runErr)
	}
}

// TestRunContextCancelBeforeRun checks that an already-cancelled context
// aborts both replay paths immediately.
func TestRunContextCancelBeforeRun(t *testing.T) {
	jobs := cancelJobs(t, 20)
	for _, sequential := range []bool{false, true} {
		f, err := New(Config{
			Clusters:   []ClusterSpec{{M: 16}, {M: 8}},
			Sequential: sequential,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := f.RunContext(ctx, jobs); !errors.Is(err, context.Canceled) {
			t.Fatalf("sequential=%v: want context.Canceled, got %v", sequential, err)
		}
	}
}
