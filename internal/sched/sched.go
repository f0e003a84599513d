// Package sched holds the two worker pools of the storage layer: Run,
// the bounded pool that replays a durable database's write-ahead log
// one relation per job, and Async, the single-flight executor for
// background maintenance (drift-triggered statistics rebuilds).
//
// Query evaluation does not use either: the engine runs the paper's
// collection phase serially, one scan per relation (strategy 1's
// "parallel evaluation of subexpressions" is a single-pass strategy,
// not a multi-core one).
//
// Run's guarantees:
//
//   - At most `workers` jobs run at any moment.
//   - Run returns only after every started job has returned — no
//     goroutine outlives the call, regardless of errors or
//     cancellation.
//   - Errors are reported deterministically: when several jobs fail,
//     the error of the lowest-indexed failed job wins. A failure or a
//     cancelled context stops jobs that have not started yet.
package sched

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Job is one unit of work. It must observe ctx: once the run is
// cancelled (externally or by another job's error), long-running jobs
// are expected to return promptly with ctx.Err().
type Job func(ctx context.Context) error

// Run executes the jobs with at most `workers` running at once, in
// index order of starting, and returns the lowest-indexed job error,
// or ctx.Err() if the context was cancelled. workers < 1 is treated as
// 1.
func Run(ctx context.Context, workers int, jobs []Job) error {
	workers = max(1, min(workers, len(jobs)))
	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				start := time.Now()
				errs[i] = jobs[i](jctx)
				mJobLatency.Observe(time.Since(start))
				mJobs.Inc()
				if errs[i] != nil {
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
