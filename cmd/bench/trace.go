package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"

	"pascalr/internal/obs"
)

// span is one bench-owned span: a timed call into a layer, or a span
// adopted from the obs span tree the program recorded for the same
// operation. Times are nanoseconds since the recorder started.
type span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent"` // -1 for an operation's root
	Op     int               `json:"op"`     // spans of one operation share it
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// recorder keeps spans in memory; one goroutine drives a traced pass,
// so it needs no lock.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// start opens a span and returns its id.
func (r *recorder) start(name string, parent, op int) int {
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Op: op, Name: name, Start: r.now()})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) { r.spans[id].End = r.now() }

// adopt hangs an obs span tree under parent. The tree's offsets count
// from the obs trace's own start, which the caller observed at base
// (recorder time); children are clipped into their parent so self-time
// arithmetic never sees a child outlive it.
func (r *recorder) adopt(root obs.SpanJSON, base int64, parent, op int) {
	p := r.spans[parent]
	for _, c := range root.Children {
		s := span{ID: len(r.spans), Parent: parent, Op: op, Name: c.Name, Attrs: c.Attrs,
			Start: base + c.StartUS*1000, End: base + (c.StartUS+c.DurUS)*1000}
		s.Start = min(max(s.Start, p.Start), p.End)
		s.End = min(max(s.End, s.Start), p.End)
		r.spans = append(r.spans, s)
		r.adopt(c, base, s.ID, op)
	}
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover (their union, so overlapping
// children are not subtracted twice).
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - unionLength(children[s.ID], s.Start, s.End)
	}
	return self
}

// unionLength measures the union of the intervals, clipped to [lo, hi].
func unionLength(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	end := lo
	for _, x := range iv {
		a, b := max(x[0], end), min(x[1], hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// layerOf maps a span name to the module that owns the time: bench
// spans are named "<layer>:<what>", adopted obs spans by their phase.
func layerOf(name string) string {
	switch {
	case name == "parse":
		return "parser"
	case name == "check":
		return "calculus"
	case name == "standardize":
		return "normalize"
	case name == "optimize":
		return "optimizer"
	case name == "compile":
		return "engine.compile"
	case name == "collection" || name == "deferred-join":
		return "engine.collection"
	case strings.HasPrefix(name, "scan ") || strings.HasPrefix(name, "shard "):
		return "collection+storage"
	case name == "combination" || strings.HasPrefix(name, "conj"):
		return "engine.combination"
	case name == "join":
		return "algebra"
	case name == "fetch":
		return "engine.construction"
	}
	if layer, _, ok := strings.Cut(name, ":"); ok {
		return layer
	}
	return name
}

// layerShares sums self time per layer over the spans and returns each
// layer's share of the summed root durations, plus how much of the root
// time the self times account for (1 when every child lies inside its
// parent).
func layerShares(spans []span) (shares map[string]float64, accounted float64) {
	self := selfTimes(spans)
	byLayer := map[string]int64{}
	var rootTotal, selfTotal int64
	for i, s := range spans {
		byLayer[layerOf(s.Name)] += self[i]
		selfTotal += self[i]
		if s.Parent < 0 {
			rootTotal += s.End - s.Start
		}
	}
	shares = make(map[string]float64, len(byLayer))
	for l, ns := range byLayer {
		shares[l] = ratio(float64(ns), float64(rootTotal))
	}
	return shares, ratio(float64(selfTotal), float64(rootTotal))
}

// perOp groups the durations (µs) of the spans pick accepts by
// operation and sums them, returning one value per operation that had
// any.
func perOp(spans []span, pick func(span) bool) (sums, counts, largest []float64) {
	type agg struct {
		sum, largest float64
		n            int
	}
	byOp := map[int]*agg{}
	var ops []int
	for _, s := range spans {
		if !pick(s) {
			continue
		}
		a := byOp[s.Op]
		if a == nil {
			a = &agg{}
			byOp[s.Op] = a
			ops = append(ops, s.Op)
		}
		us := float64(s.End-s.Start) / 1e3
		a.sum += us
		a.largest = max(a.largest, us)
		a.n++
	}
	for _, op := range ops {
		a := byOp[op]
		sums = append(sums, a.sum)
		counts = append(counts, float64(a.n))
		largest = append(largest, a.largest)
	}
	return sums, counts, largest
}

// named picks spans by exact name; a name ending in a space picks by
// that prefix ("scan " matches every "scan <relation>").
func named(name string) func(span) bool {
	return func(s span) bool {
		return s.Name == name || (strings.HasSuffix(name, " ") && strings.HasPrefix(s.Name, name))
	}
}

// traceFile is what -trace-out writes: the bench-owned spans (adopted
// obs spans among them, told apart by their names) per workload.
type traceFile struct {
	Workload string `json:"workload"`
	Spans    []span `json:"spans"`
}

func writeTraceFile(path string, files []traceFile) error {
	buf, err := json.Marshal(files)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
