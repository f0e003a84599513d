// Command bench is the repository's performance ruler: five seeded,
// closed-loop workloads driven through the public surfaces on both
// storage backends, every result checked, end-to-end metrics measured
// with tracing off and per-layer metrics from a second, traced pass.
// README.md in this directory is the glossary; BENCHMARK.json at the
// repository root fixes the metric names, directions and bounds.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// options are the command line. The committed BENCHMARK.json fixes the
// values the pipeline uses; the rest exist for people.
type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        string
	reps         int
	workdir      string
	traceOut     string
	smoke        bool
	verifyRepeat bool
	reverse      bool
	printExpect  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 12, "timed seconds per workload, split evenly over -reps repetitions")
	flag.StringVar(&o.trace, "trace", "both", "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass; both")
	flag.IntVar(&o.reps, "reps", 12, "timed repetitions per workload")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/work", "directory for the data directories of disk workloads")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced pass's spans to this file")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny scale and repetitions: checks plumbing, not speed")
	flag.BoolVar(&o.verifyRepeat, "verify-repeat", false, "run the suite twice and fail if any end-to-end median moves by more than its bound")
	flag.BoolVar(&o.reverse, "reverse", false, "run the workloads in reverse order")
	flag.BoolVar(&o.printExpect, "print-expected", false, "print the result digests of this run as JSON, the content of testdata/expected.json (seed 1)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// report is the last line a single-workload run prints, the shape the
// pipeline reads.
type report struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`
}

type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(o options) error {
	if runtime.NumCPU() < clients {
		return fmt.Errorf("%d CPUs: the %d closed-loop clients would be oversubscribed, refusing to report", runtime.NumCPU(), clients)
	}
	if o.trace != "0" && o.trace != "1" && o.trace != "both" {
		return fmt.Errorf("-trace %q: want 0, 1 or both", o.trace)
	}
	if o.smoke {
		o.reps = min(o.reps, 3)
		o.seconds = 0.2 * float64(o.reps)
	}
	var todo []*spec
	if o.workload == "all" {
		todo = append(todo, specs...)
	} else if sp := specByName(o.workload); sp != nil {
		todo = []*spec{sp}
	} else {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.reverse {
		for i, j := 0, len(todo)-1; i < j; i, j = i+1, j-1 {
			todo[i], todo[j] = todo[j], todo[i]
		}
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	printEnvironment(o)

	suite := func() (map[string]*outcome, error) {
		outs := map[string]*outcome{}
		for _, sp := range todo {
			out, err := runWorkload(context.Background(), sp, o)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sp.name, err)
			}
			out.print(sp)
			outs[sp.name] = out
		}
		return outs, nil
	}
	first, err := suite()
	if err != nil {
		return err
	}
	if o.printExpect {
		exp := expectedFile{}
		for _, sp := range todo {
			exp[sp.name] = first[sp.name].digests
		}
		buf, err := json.MarshalIndent(exp, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(buf))
		return nil
	}
	var traces []traceFile
	incorrect := false
	for _, sp := range todo {
		traces = append(traces, traceFile{Workload: sp.name, Spans: first[sp.name].spans})
		incorrect = incorrect || !first[sp.name].correct()
	}
	if o.traceOut != "" {
		if err := writeTraceFile(o.traceOut, traces); err != nil {
			return err
		}
	}
	if o.verifyRepeat {
		second, err := suite()
		if err != nil {
			return err
		}
		if err := compareRuns(todo, first, second); err != nil {
			return err
		}
	}
	if incorrect {
		return errors.New("results were incorrect or operations failed; see the report")
	}
	return nil
}

func printEnvironment(o options) {
	fmt.Printf("# bench: nproc=%d GOMAXPROCS=%d %s clients=%d seed=%d seconds=%g reps=%d (closed loop)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), clients, o.seed, o.seconds, o.reps)
	fmt.Println("# latencies and fsync cost are this sandbox's, not a storage device's")
}

// outcome is everything one workload run produced.
type outcome struct {
	endToEnd  map[string]summary
	perLayer  map[string]summary
	attempted int
	failed    int
	failures  []string
	notes     []string
	spans     []span
	trace     string
	digests   map[string]digest // per query template, what the run computed
}

func (out *outcome) correct() bool { return out.failed == 0 && len(out.failures) == 0 }

func (out *outcome) fail(format string, args ...any) {
	out.failures = append(out.failures, fmt.Sprintf(format, args...))
}

// print writes every metric by name with its unit, then the pipeline's
// result line.
func (out *outcome) print(sp *spec) {
	fmt.Printf("\n== %s: %s\n", sp.name, sp.why)
	for _, n := range out.notes {
		fmt.Println("   " + n)
	}
	section := func(title string, m map[string]summary) {
		if len(m) == 0 {
			return
		}
		fmt.Printf("-- %s\n", title)
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			s := m[n]
			fmt.Printf("%-40s %14.4f %-6s  min %.4f  max %.4f  n=%d\n", n, s.Value, s.Unit, s.Min, s.Max, s.N)
		}
	}
	section("end-to-end (tracing off)", out.endToEnd)
	section("per-layer (traced pass, probes, program counters)", out.perLayer)
	for _, f := range out.failures {
		fmt.Println("FAILED:", f)
	}
	rep := report{Correct: out.correct(), Attempted: max(out.attempted, 1), Failed: out.failed, Metrics: map[string]reading{}}
	for _, m := range []map[string]summary{out.endToEnd, out.perLayer} {
		for n, s := range m {
			if out.trace == "both" || contractMetrics[out.trace][n] {
				rep.Metrics[n] = reading{s.Value, s.Unit}
			}
		}
	}
	line, _ := json.Marshal(rep)
	fmt.Println(string(line))
}

// runWorkload sets a workload up, runs the passes -trace selects and
// the correctness checks, and tears it down.
func runWorkload(ctx context.Context, sp *spec, o options) (*outcome, error) {
	out := &outcome{endToEnd: map[string]summary{}, perLayer: map[string]summary{}, trace: o.trace}
	n := sp.scale
	if o.smoke {
		n = 30
	}
	if err := checkOracleScale(sp, o.seed); err != nil {
		out.fail("baseline oracle: %v", err)
	}

	// Set-up repeats so that setup_s is a median: three times, and on
	// until a second has gone into it (at most 40 times), so that a
	// millisecond set-up is not reported from three samples. Runs that do
	// not report setup_s (smoke, the traced run alone) set up once.
	once := o.smoke || o.trace == "1"
	var setupS, heapMB []float64
	var inst *instance
	for {
		if inst != nil {
			if err := inst.tearDown(); err != nil {
				return nil, err
			}
		}
		var s, h float64
		var err error
		if inst, s, h, err = sp.setUp(o.seed, n, o.workdir); err != nil {
			return nil, err
		}
		setupS, heapMB = append(setupS, s), append(heapMB, h)
		if once || (len(setupS) >= 3 && (sum(setupS) >= 1 || len(setupS) >= 40)) {
			break
		}
	}
	defer func() { inst.tearDown() }()

	want, err := oracleDigests(inst.db, inst.in.qs)
	if err != nil {
		out.fail("planner agreement: %v", err)
		want = make([]digest, len(inst.in.qs))
	}
	inst.want = want
	out.digests = templateDigests(inst.in.qs, want)
	if o.seed == 1 && !o.smoke && !o.printExpect {
		exp, err := loadExpected()
		if err != nil {
			return nil, err
		}
		if err := compareExpected(exp[sp.name], out.digests); err != nil {
			out.fail("expected results: %v", err)
		}
	}

	if o.trace != "1" {
		out.endToEnd["setup_s"] = summarize(setupS, "s")
		out.endToEnd["heap_mb"] = summarize(heapMB, "MiB")
		warmup := 2 * time.Second
		if o.smoke {
			warmup = 100 * time.Millisecond
		}
		res, err := timedPass(ctx, inst, warmup, o.reps, o.seconds/float64(o.reps), o.smoke)
		if err != nil {
			return nil, err
		}
		for n, s := range res.metrics {
			out.endToEnd[n] = s
		}
		out.attempted += res.attempted
		out.failed += res.failed
		if res.failure != nil {
			out.fail("first failed operation: %v", res.failure)
		}
		out.endToEnd["error_rate"] = summary{Value: ratio(float64(res.failed), float64(res.attempted)), Unit: "fraction", N: res.attempted}
	}
	if o.trace != "0" {
		if err := diagnose(ctx, inst, o, out); err != nil {
			return nil, err
		}
	}
	if sp.disk {
		if err := recoveryCheck(inst, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// compareRuns is -verify-repeat: every end-to-end median of the second
// suite run must be within its bound of the first.
func compareRuns(todo []*spec, first, second map[string]*outcome) error {
	moved := 0
	for _, sp := range todo {
		for _, def := range endToEndMetrics {
			a, z := first[sp.name].endToEnd[def.Name], second[sp.name].endToEnd[def.Name]
			if a.Value == 0 {
				continue
			}
			worse := (z.Value - a.Value) / a.Value
			if def.Better == "higher" {
				worse = -worse
			}
			if worse > def.Bound {
				fmt.Printf("MOVED %s %s: %.4f -> %.4f %s (%.1f%% worse, bound %.0f%%)\n",
					sp.name, def.Name, a.Value, z.Value, a.Unit, worse*100, def.Bound*100)
				moved++
			}
		}
	}
	if moved > 0 {
		return fmt.Errorf("%d end-to-end medians moved by more than their bound between two runs of the same code", moved)
	}
	fmt.Println("# verify-repeat: every end-to-end median within its bound")
	return nil
}
