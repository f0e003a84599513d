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
// query path must not wait for — today, drift-triggered histogram
// re-bucketing. Jobs are keyed and single-flight: submitting a key
// that is already queued or running is a no-op, so a burst of
// mutations schedules at most one rebuild per relation. At most
// `workers` jobs run concurrently; no worker goroutine exists while
// the queue is empty.
type Async struct {
	mu      sync.Mutex
	cond    *sync.Cond // signalled when the executor drains empty
	workers int
	running int
	closed  bool
	pending map[string]func()
	order   []string // FIFO over pending keys
}

// NewAsync returns an executor running at most workers jobs at once
// (workers < 1 is treated as 1).
func NewAsync(workers int) *Async {
	if workers < 1 {
		workers = 1
	}
	a := &Async{workers: workers, pending: make(map[string]func())}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// Submit enqueues fn under key unless a job with that key is already
// pending or running, or the executor is closed. It returns whether the
// job was accepted.
func (a *Async) Submit(key string, fn func()) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return false
	}
	if _, dup := a.pending[key]; dup {
		return false
	}
	a.pending[key] = fn
	a.order = append(a.order, key)
	mAsyncJobs.Inc()
	mAsyncBacklog.Add(1)
	if a.running < a.workers {
		a.running++
		go a.drain()
	}
	return true
}

// drain runs pending jobs until the queue empties, then exits — the
// goroutine's lifetime is bounded by the queued work.
func (a *Async) drain() {
	for {
		a.mu.Lock()
		if len(a.order) == 0 {
			a.running--
			if a.running == 0 && len(a.pending) == 0 {
				a.cond.Broadcast()
			}
			a.mu.Unlock()
			return
		}
		key := a.order[0]
		a.order = a.order[1:]
		fn := a.pending[key]
		a.mu.Unlock()

		fn()

		a.mu.Lock()
		delete(a.pending, key)
		mAsyncBacklog.Add(-1)
		a.mu.Unlock()
	}
}

// Wait blocks until no job is pending or running. Jobs submitted while
// waiting are waited for too. Unlike a WaitGroup, concurrent Submit and
// Wait are safe: both operate under the executor's mutex.
func (a *Async) Wait() {
	a.mu.Lock()
	for a.running > 0 || len(a.pending) > 0 {
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
	for a.running > 0 || len(a.pending) > 0 {
		a.cond.Wait()
	}
	a.mu.Unlock()
}
