package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunBoundsConcurrency checks that no more than `workers` jobs are
// in flight at once.
func TestRunBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	jobs := make([]Job, 16)
	for i := range jobs {
		jobs[i] = func(context.Context) error {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return nil
		}
	}
	if err := Run(context.Background(), workers, jobs); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent jobs, want at most %d", p, workers)
	}
}

// TestRunDeterministicError makes two independent jobs fail and checks
// the lowest-indexed job's error wins, whatever the interleaving.
func TestRunDeterministicError(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for round := 0; round < 50; round++ {
		jobs := []Job{
			func(context.Context) error { return nil },
			func(context.Context) error { return errLow },
			func(context.Context) error { return errHigh },
		}
		err := Run(context.Background(), 3, jobs)
		if !errors.Is(err, errLow) {
			t.Fatalf("round %d: got %v, want %v", round, err, errLow)
		}
	}
}

// TestRunErrorStopsQueuedJobs checks that jobs not yet started when a
// job fails never start.
func TestRunErrorStopsQueuedJobs(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Bool
	jobs := []Job{
		func(context.Context) error { return boom },
		func(context.Context) error { ran.Store(true); return nil },
	}
	if err := Run(context.Background(), 1, jobs); !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if ran.Load() {
		t.Fatal("a job queued behind a failed one ran")
	}
}

// TestRunCancellation cancels mid-schedule: Run must return ctx.Err()
// and leave no goroutines behind.
func TestRunCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = func(c context.Context) error {
			once.Do(func() { close(started) })
			<-c.Done()
			return c.Err()
		}
	}
	go func() {
		<-started
		cancel()
	}()
	if err := Run(ctx, 2, jobs); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	waitForGoroutines(t, before)
}

// TestRunPreCancelled returns immediately on an already-cancelled
// context.
func TestRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Bool
	jobs := []Job{func(context.Context) error { ran.Store(true); return nil }}
	if err := Run(ctx, 1, jobs); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if ran.Load() {
		t.Fatal("a job ran on a cancelled context")
	}
}

// TestRunSerialOrder checks that a single worker executes independent
// jobs in index order — the deterministic schedule the serial engine
// produces.
func TestRunSerialOrder(t *testing.T) {
	var mu sync.Mutex
	var order []int
	jobs := make([]Job, 6)
	for i := range jobs {
		i := i
		jobs[i] = func(context.Context) error {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			return nil
		}
	}
	if err := Run(context.Background(), 1, jobs); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("single-worker order %v, want ascending", order)
		}
	}
}

func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d -> %d", before, after)
	}
}

// TestRunEveryJobOnce checks that every job runs exactly once whatever
// the worker count, including counts below one (treated as one) and
// above the number of jobs (clamped to it).
func TestRunEveryJobOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 3, 64} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			runs := make([]atomic.Int64, 10)
			jobs := make([]Job, len(runs))
			for i := range jobs {
				jobs[i] = func(context.Context) error {
					runs[i].Add(1)
					return nil
				}
			}
			if err := Run(context.Background(), workers, jobs); err != nil {
				t.Fatal(err)
			}
			for i := range runs {
				if n := runs[i].Load(); n != 1 {
					t.Fatalf("job %d ran %d times, want 1", i, n)
				}
			}
		})
	}
}

// TestRunNoJobs: an empty job list succeeds on a live context and
// reports the cancellation on a cancelled one, leaving no goroutines.
func TestRunNoJobs(t *testing.T) {
	before := runtime.NumGoroutine()
	if err := Run(context.Background(), 4, nil); err != nil {
		t.Fatalf("empty run on a live context: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Run(ctx, 4, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("empty run on a cancelled context: got %v, want context.Canceled", err)
	}
	waitForGoroutines(t, before)
}
