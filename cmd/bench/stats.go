package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"pascalr/internal/obs"
)

// summary is one metric as reported: the median over repetitions (or
// the statistic over pooled samples), with the extremes and the sample
// count beside it.
type summary struct {
	Value float64
	Unit  string
	Min   float64
	Max   float64
	N     int
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// summarize reports the median of per-repetition values.
func summarize(xs []float64, unit string) summary {
	if len(xs) == 0 {
		return summary{Unit: unit}
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return summary{Value: median(xs), Unit: unit, Min: lo, Max: hi, N: len(xs)}
}

// percentile returns the given per-mille quantile (500 is the median,
// 990 is p99) of sorted by nearest rank, in integer arithmetic so that
// p99 of 1000 samples is the 990th, not the 991st by a rounding error.
func percentile(sorted []float64, permille int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (len(sorted)*permille + 999) / 1000
	return sorted[min(max(rank, 1), len(sorted))-1]
}

// tailCandidates are the tail quantiles a latency metric may be
// reported at, per mille, ascending: p90, p99, p99.9.
var tailCandidates = []int{900, 990, 999}

// tailPercentile applies the reporting rule for latency tails: the
// highest candidate that still has at least ten samples beyond it. ok
// is false when not even the lowest candidate qualifies.
func tailPercentile(n int) (permille int, ok bool) {
	for _, c := range tailCandidates {
		if n-(n*c+999)/1000 >= 10 {
			permille, ok = c, true
		}
	}
	return permille, ok
}

// latencySummary reports a quantile of the pooled samples.
func latencySummary(sorted []float64, permille int, unit string) summary {
	if len(sorted) == 0 {
		return summary{Unit: unit}
	}
	return summary{Value: percentile(sorted, permille), Unit: unit, Min: sorted[0], Max: sorted[len(sorted)-1], N: len(sorted)}
}

// promSample is the value of every un-labelled series of a Prometheus
// text exposition, plus histogram _sum and _count series; bucket series
// and info series (which carry labels) are skipped.
type promSample map[string]float64

// parseProm reads the text exposition format obs.WritePrometheus
// renders.
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("prometheus text: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("prometheus text: %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// delta returns after - before per series; a series absent before
// counts from zero.
func (after promSample) delta(before promSample) promSample {
	out := make(promSample, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// promNow samples the program's always-on counters.
func promNow() (promSample, error) {
	var b bytes.Buffer
	if err := obs.WritePrometheus(&b); err != nil {
		return nil, err
	}
	return parseProm(&b)
}

// waitQuiesced waits until the program's background executor (drift-
// triggered statistics rebuilds, checkpoints, compactions) has nothing
// queued or running, so what follows measures the workload alone.
func waitQuiesced() error {
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		s, err := promNow()
		if err != nil {
			return err
		}
		if s["pascal_sched_async_backlog_count"] == 0 {
			return nil
		}
	}
	return errors.New("background maintenance did not quiesce within 30 s")
}
