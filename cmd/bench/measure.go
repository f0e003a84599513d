package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// sample is one completed operation of the timed pass.
type sample struct {
	kind opKind
	ns   int64
}

// repetition is what one timed repetition measured across all clients.
type repetition struct {
	ops, failed  int
	seconds      float64
	cpuSeconds   float64
	allocBytes   uint64
	mallocs      uint64
	firstFailure error
}

// cpuTime is the process's user+system CPU time.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// runClients drives every worker closed-loop for d: each sends its next
// operation only when the previous one has completed and been checked.
// An operation in flight at the deadline completes and counts.
func runClients(ctx context.Context, inst *instance, d time.Duration, samples [][]sample) (repetition, error) {
	runtime.GC() // every repetition starts from a collected heap
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, err := cpuTime()
	if err != nil {
		return repetition{}, err
	}
	type tally struct {
		ops, failed int
		first       error
	}
	tallies := make([]tally, len(inst.workers))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	timer := time.AfterFunc(d, func() { close(stop) })
	defer timer.Stop()
	start := time.Now()
	deadline := start.Add(d)
	for i, w := range inst.workers {
		w.stop = stop
		wg.Add(1)
		go func() {
			defer wg.Done()
			ta := &tallies[i]
			for time.Now().Before(deadline) {
				t0 := time.Now()
				kind, err := w.next(ctx, nil)
				ns := int64(time.Since(t0))
				if err == errStopped {
					break
				}
				ta.ops++
				if err != nil {
					// A failed operation misses every latency figure.
					ta.failed++
					if ta.first == nil {
						ta.first = err
					}
					continue
				}
				samples[i] = append(samples[i], sample{kind, ns})
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, w := range inst.workers {
		w.stop = nil // passes outside a repetition never wait on a closed channel
	}
	cpu1, err := cpuTime()
	if err != nil {
		return repetition{}, err
	}
	runtime.ReadMemStats(&after)
	rep := repetition{
		seconds:    elapsed.Seconds(),
		cpuSeconds: (cpu1 - cpu0).Seconds(),
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		mallocs:    after.Mallocs - before.Mallocs,
	}
	for _, ta := range tallies {
		rep.ops += ta.ops
		rep.failed += ta.failed
		if rep.firstFailure == nil {
			rep.firstFailure = ta.first
		}
	}
	return rep, nil
}

// timedResult is the untraced pass of one workload.
type timedResult struct {
	metrics   map[string]summary
	attempted int
	failed    int
	failure   error // first failed operation, for the report
}

// timedPass warms the instance up, then runs reps repetitions of
// repSeconds each on it. Rates and per-operation costs are computed per
// repetition and reported as the median; latency percentiles are taken
// over the pooled samples of all repetitions.
func timedPass(ctx context.Context, inst *instance, warmup time.Duration, reps int, repSeconds float64, allowShortTail bool) (*timedResult, error) {
	samples := make([][]sample, len(inst.workers))
	for i := range samples {
		samples[i] = make([]sample, 0, 1<<14)
	}
	if _, err := runClients(ctx, inst, warmup, samples); err != nil {
		return nil, err
	}
	for i := range samples {
		samples[i] = samples[i][:0]
	}
	res := &timedResult{metrics: map[string]summary{}}
	var opsPerS, cpuMs, allocKB, allocs []float64
	for r := 0; r < reps; r++ {
		rep, err := runClients(ctx, inst, time.Duration(repSeconds*float64(time.Second)), samples)
		if err != nil {
			return nil, err
		}
		res.attempted += rep.ops
		res.failed += rep.failed
		if res.failure == nil {
			res.failure = rep.firstFailure
		}
		ok := float64(rep.ops - rep.failed)
		if ok == 0 {
			return nil, fmt.Errorf("%s: no operation succeeded: %v", inst.sp.name, rep.firstFailure)
		}
		opsPerS = append(opsPerS, ok/rep.seconds)
		cpuMs = append(cpuMs, rep.cpuSeconds*1e3/ok)
		allocKB = append(allocKB, float64(rep.allocBytes)/1024/ok)
		allocs = append(allocs, float64(rep.mallocs)/ok)
	}
	res.metrics["ops_per_s"] = summarize(opsPerS, "1/s")
	res.metrics["cpu_ms_per_op"] = summarize(cpuMs, "ms")
	res.metrics["alloc_kb_per_op"] = summarize(allocKB, "KiB")
	res.metrics["allocs_per_op"] = summarize(allocs, "count")

	var reads, writes []float64
	for _, ss := range samples {
		for _, s := range ss {
			if s.kind == opWrite {
				writes = append(writes, float64(s.ns)/1e6)
			} else {
				reads = append(reads, float64(s.ns)/1e6)
			}
		}
	}
	if err := latencyMetrics(res.metrics, "read", reads, allowShortTail); err != nil {
		return nil, fmt.Errorf("%s: %w", inst.sp.name, err)
	}
	if inst.sp.writer {
		if err := latencyMetrics(res.metrics, "write", writes, allowShortTail); err != nil {
			return nil, fmt.Errorf("%s: %w", inst.sp.name, err)
		}
	}
	return res, nil
}

// latencyMetrics adds <kind>_p50_ms and <kind>_p99_ms. The p99 name is
// only honest with at least ten samples beyond it; a run that falls
// short fails, except in smoke runs, which report the highest
// percentile that qualifies (or the maximum) under the name.
func latencyMetrics(m map[string]summary, kind string, ms []float64, allowShortTail bool) error {
	sort.Float64s(ms)
	p, ok := tailPercentile(len(ms))
	if !ok || p < 990 {
		if !allowShortTail {
			return fmt.Errorf("%d pooled %ss are too few to report %s_p99_ms (needs 1000)", len(ms), kind, kind)
		}
		if !ok {
			p = 1000
		}
	} else {
		p = 990
	}
	m[kind+"_p50_ms"] = latencySummary(ms, 500, "ms")
	m[kind+"_p99_ms"] = latencySummary(ms, p, "ms")
	return nil
}
