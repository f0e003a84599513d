// Package sched holds Async, the single-flight executor for the
// storage layer's background maintenance (drift-triggered statistics
// rebuilds, WAL-size checkpoints, compactions).
//
// Query evaluation does not use it: the engine runs the paper's
// collection phase serially, one scan per relation (strategy 1's
// "parallel evaluation of subexpressions" is a single-pass strategy,
// not a multi-core one). WAL replay on open is serial too, in log
// order.
package sched

import "sync"

// Async is a small background executor for maintenance work the
// query path must not wait for — drift-triggered histogram
// re-bucketing, checkpoints and compactions. Jobs are keyed and
// single-flight: a key runs at most once at a time and is queued at
// most once, so a burst of mutations schedules at most one rebuild per
// relation. Submitting a key that is queued is a no-op; submitting a
// key that is running marks one more run, which starts after the
// current one finishes — work triggered after a running job has read
// its input is not lost. Jobs therefore re-check their trigger, so a
// rerun that finds the work done returns at once. At most `workers`
// jobs run concurrently; no worker goroutine exists while the queue is
// empty.
type Async struct {
	mu      sync.Mutex
	cond    *sync.Cond // signalled when the executor drains empty
	workers int
	running int
	closed  bool
	jobs    map[string]*job // queued or running, by key
	order   []string        // FIFO over queued keys
}

// job is one key's queued or running work.
type job struct {
	fn      func()
	running bool
	again   bool // submitted while running: queue fn once more after
}

// NewAsync returns an executor running at most workers jobs at once
// (workers < 1 is treated as 1).
func NewAsync(workers int) *Async {
	if workers < 1 {
		workers = 1
	}
	a := &Async{workers: workers, jobs: make(map[string]*job)}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// Submit enqueues fn under key, or, when the key is running, marks fn
// to run once more after it. It returns whether the job was accepted:
// false when the key is already queued (or running with a rerun
// marked) or the executor is closed.
func (a *Async) Submit(key string, fn func()) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return false
	}
	if j, dup := a.jobs[key]; dup {
		if !j.running || j.again {
			return false
		}
		// The worker running key requeues it when the run ends.
		j.fn, j.again = fn, true
	} else {
		a.jobs[key] = &job{fn: fn}
		a.order = append(a.order, key)
		if a.running < a.workers {
			a.running++
			go a.drain()
		}
	}
	mAsyncJobs.Inc()
	mAsyncBacklog.Add(1)
	return true
}

// drain runs queued jobs until the queue empties, then exits — the
// goroutine's lifetime is bounded by the queued work. A job marked to
// run again goes back to the tail of the queue once it finishes.
func (a *Async) drain() {
	for {
		a.mu.Lock()
		if len(a.order) == 0 {
			a.running--
			if a.running == 0 && len(a.jobs) == 0 {
				a.cond.Broadcast()
			}
			a.mu.Unlock()
			return
		}
		key := a.order[0]
		a.order = a.order[1:]
		j := a.jobs[key]
		j.running = true
		fn := j.fn
		a.mu.Unlock()

		fn()

		a.mu.Lock()
		j.running = false
		if j.again {
			j.again = false
			a.order = append(a.order, key)
		} else {
			delete(a.jobs, key)
		}
		mAsyncBacklog.Add(-1)
		a.mu.Unlock()
	}
}

// Wait blocks until no job is pending or running. Jobs submitted while
// waiting are waited for too. Unlike a WaitGroup, concurrent Submit and
// Wait are safe: both operate under the executor's mutex.
func (a *Async) Wait() {
	a.mu.Lock()
	for a.running > 0 || len(a.jobs) > 0 {
		a.cond.Wait()
	}
	a.mu.Unlock()
}

// Close quiesces the executor for shutdown: submissions from this point
// on are rejected (Submit returns false), and Close blocks until every
// already-accepted job has finished. Unlike Wait alone, the rejection
// guarantees that no job can slip in between the drain and the caller's
// teardown — the race Wait-then-teardown would otherwise leave open.
// Close is idempotent and safe to call concurrently with Submit.
func (a *Async) Close() {
	a.mu.Lock()
	a.closed = true
	for a.running > 0 || len(a.jobs) > 0 {
		a.cond.Wait()
	}
	a.mu.Unlock()
}
