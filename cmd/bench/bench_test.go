package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want int // per mille
		ok   bool
	}{
		{99, 0, false}, // p90 would leave 9 samples beyond it
		{100, 900, true},
		{999, 900, true},
		{1000, 990, true},
		{9999, 990, true},
		{10000, 999, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := percentile(sorted, 990); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond it)", got)
	}
	if got := percentile(sorted, 500); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
}

func TestLatencyMetricsRefusesShortTail(t *testing.T) {
	ms := make([]float64, 999)
	if err := latencyMetrics(map[string]summary{}, "read", ms, false); err == nil {
		t.Error("999 samples reported under the p99 name")
	}
	if err := latencyMetrics(map[string]summary{}, "read", append(ms, 1), false); err != nil {
		t.Errorf("1000 samples refused: %v", err)
	}
}

// TestSelfTimes checks a span's self time is its duration minus the
// union of its children's intervals: overlapping children are not
// subtracted twice, grandchildren not at all.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 60}, // overlaps span 1 by 10
		{ID: 3, Parent: 0, Start: 80, End: 90},
		{ID: 4, Parent: 1, Start: 15, End: 25}, // grandchild of the root
	}
	want := []int64{100 - 50 - 10, 30 - 10, 30, 10, 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	var total int64
	for _, s := range selfTimes(spans[:2]) {
		total += s
	}
	if total != 100 {
		t.Errorf("self times of a nested tree sum to %d, want the root's 100", total)
	}
	_, accounted := layerShares(spans)
	if math.Abs(accounted-1.1) > 1e-9 { // the 10 overlapped units are counted in both children
		t.Errorf("accounted = %v, want 1.1", accounted)
	}
}

func TestParsePromDelta(t *testing.T) {
	const before = `# HELP pascal_storage_wal_fsyncs_total fsyncs
# TYPE pascal_storage_wal_fsyncs_total counter
pascal_storage_wal_fsyncs_total 7
# TYPE pascal_storage_checkpoint_seconds histogram
pascal_storage_checkpoint_seconds_bucket{le="0.001"} 1
pascal_storage_checkpoint_seconds_bucket{le="+Inf"} 2
pascal_storage_checkpoint_seconds_sum 0.25
pascal_storage_checkpoint_seconds_count 2
pascal_server_last_trace_info{trace_id="abc"} 1
`
	const after = `pascal_storage_wal_fsyncs_total 19
pascal_storage_checkpoint_seconds_sum 1.5
pascal_storage_checkpoint_seconds_count 5
pascal_engine_queries_total 3
`
	b, err := parseProm(strings.NewReader(before))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b["pascal_server_last_trace_info"]; ok || len(b) != 3 {
		t.Errorf("labelled series must be skipped, got %v", b)
	}
	a, err := parseProm(strings.NewReader(after))
	if err != nil {
		t.Fatal(err)
	}
	want := promSample{
		"pascal_storage_wal_fsyncs_total":         12,
		"pascal_storage_checkpoint_seconds_sum":   1.25,
		"pascal_storage_checkpoint_seconds_count": 3,
		"pascal_engine_queries_total":             3, // absent before: counted from zero
	}
	if got := a.delta(b); !reflect.DeepEqual(got, want) {
		t.Errorf("delta = %v, want %v", got, want)
	}
	if _, err := parseProm(strings.NewReader("pascal_x_total notanumber\n")); err == nil {
		t.Error("malformed value accepted")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, sp := range specs {
		hash := func(seed int64) uint64 {
			in := sp.generate(seed, sp.scale)
			return opListHash(in.qs, in.orders, in.writes[:min(len(in.writes), 1000)])
		}
		if hash(1) != hash(1) {
			t.Errorf("%s: the same seed generated different inputs", sp.name)
		}
		if hash(1) == hash(2) {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", sp.name)
		}
	}
	qs := specByName("adhoc_compile_mem").generate(1, 50).qs
	seen := map[string]bool{}
	for _, q := range qs {
		seen[q.src] = true
	}
	if len(seen) != adhocTexts {
		t.Errorf("%d distinct ad-hoc texts, want %d", len(seen), adhocTexts)
	}
}

func TestDigestIsOrderIndependent(t *testing.T) {
	a := [][]any{{int64(1), "x", true}, {int64(2), "y", false}, {int64(3), "", true}}
	b := [][]any{a[2], a[0], a[1]}
	if digestOf(a) != digestOf(b) {
		t.Error("row order changed the digest")
	}
	if digestOf(a) == digestOf(a[:2]) || digestOf([][]any{{"ab", "c"}}) == digestOf([][]any{{"a", "bc"}}) {
		t.Error("different results share a digest")
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string                     `json:"command"`
	Paths      []string                     `json:"paths"`
	RunSeconds int                          `json:"run_seconds"`
	Workloads  []struct{ Name, Why string } `json:"workloads"`
	EndToEnd   []metricDef                  `json:"end_to_end"`
	PerLayer   []metricDef                  `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	buf, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(buf, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesTables holds BENCHMARK.json and the tables in
// metrics.go and workloads.go together.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	f := readBenchmarkFile(t)
	if !reflect.DeepEqual(f.EndToEnd, endToEndMetrics) {
		t.Errorf("end_to_end differs from endToEndMetrics:\n%v\n%v", f.EndToEnd, endToEndMetrics)
	}
	if want := append(append([]metricDef(nil), perLayerMetrics...), extraMetrics...); !reflect.DeepEqual(f.PerLayer, want) {
		t.Errorf("per_layer differs from perLayerMetrics + extraMetrics")
	}
	if len(f.Workloads) != len(specs) {
		t.Fatalf("%d workloads, want %d", len(f.Workloads), len(specs))
	}
	for i, w := range f.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d is %q, want %q with the spec's why", i, w.Name, specs[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, at most 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(f.Paths, []string{"cmd/bench"}) {
		t.Errorf("paths = %v", f.Paths)
	}
}

// TestSmoke runs all five workloads end to end at n=30 with 0.2 s
// repetitions, both passes, and requires every metric BENCHMARK.json
// names to be emitted with its unit and nothing to fail.
func TestSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	o := options{seed: 1, seconds: 0.6, reps: 3, trace: "both", smoke: true, workdir: t.TempDir()}
	for _, sp := range specs {
		out, err := runWorkload(context.Background(), sp, o)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if !out.correct() {
			t.Errorf("%s: %d of %d operations failed: %v", sp.name, out.failed, out.attempted, out.failures)
		}
		check := func(defs []metricDef, got map[string]summary) {
			for _, d := range defs {
				s, ok := got[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s not emitted", sp.name, d.Name)
				case s.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, want %q", sp.name, d.Name, s.Unit, d.Unit)
				case math.IsNaN(s.Value) || math.IsInf(s.Value, 0):
					t.Errorf("%s: %s = %v", sp.name, d.Name, s.Value)
				}
			}
		}
		check(f.EndToEnd, out.endToEnd)
		all := map[string]summary{}
		for _, m := range []map[string]summary{out.endToEnd, out.perLayer} {
			for k, v := range m {
				all[k] = v
			}
		}
		check(f.PerLayer, all)
		if rate := all["error_rate"].Value; rate != 0 {
			t.Errorf("%s: error_rate = %v", sp.name, rate)
		}
		if len(out.spans) == 0 {
			t.Errorf("%s: the traced pass recorded no spans", sp.name)
		}
	}
}
