package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"pascalr"
	"pascalr/client"
	"pascalr/internal/obs"
	"pascalr/internal/workload"
)

// oracleScale is the database size of the tuple-substitution check.
const oracleScale = 60

// checkOracleScale runs the workload's query templates at oracleScale
// against the tuple-substitution baseline.
func checkOracleScale(sp *spec, seed int64) error {
	script, err := workload.UniversityScript(oracleScale)
	if err != nil {
		return err
	}
	db, err := pascalr.Open(script)
	if err != nil {
		return err
	}
	defer db.Close()
	return checkBaseline(db, sp.generate(seed, oracleScale).qs)
}

// adoptServer fetches the span tree the server recorded for the
// connection's last statement and hangs its phases under the bench span
// that was open when each began: collection and combination under the
// execute round trip, the fetch batches under the drain.
func (t *opTrace) adoptServer(conn *client.Conn, exec, drain int) error {
	js, err := conn.TraceLastQuery()
	if err != nil {
		return err
	}
	var tj obs.TraceJSON
	if err := json.Unmarshal([]byte(js), &tj); err != nil {
		return fmt.Errorf("server trace: %w", err)
	}
	start, err := time.Parse(time.RFC3339Nano, tj.Start)
	if err != nil {
		return fmt.Errorf("server trace start: %w", err)
	}
	base := int64(start.Sub(t.rec.t0))
	for _, c := range tj.Root.Children {
		parent := drain
		if base+c.StartUS*1000 < t.rec.spans[exec].End {
			parent = exec
		}
		t.rec.adopt(obs.SpanJSON{Children: []obs.SpanJSON{c}}, base, parent, t.op)
	}
	if len(tj.Root.Attrs) > 0 {
		t.rec.spans[exec].Attrs = tj.Root.Attrs
	}
	return nil
}

// passResult is one fixed-operation pass by a single client.
type passResult struct {
	latUS    []float64 // per successful operation
	failed   int
	failure  error
	rows     int // rows returned by the reads
	readOps  int
	writeOps int
}

// fixedPass runs ops operations from one goroutine, so program counters
// repeat exactly: reads walk the schedule from its start; on the mixed
// workload every second operation is the writer's next mutation. With a
// recorder the pass is traced.
func fixedPass(ctx context.Context, inst *instance, ops int, rec *recorder) passResult {
	reader := inst.workers[len(inst.workers)-1]
	reader.pos = 0
	var res passResult
	for i := 0; i < ops; i++ {
		w := reader
		if inst.sp.writer && i%2 == 1 {
			w = inst.workers[0]
		}
		var t *opTrace
		if rec != nil {
			t = rec.beginOp(i)
		}
		t0 := time.Now()
		kind, err := w.next(ctx, t)
		lat := time.Since(t0)
		if ferr := t.finish(); err == nil {
			err = ferr
		}
		if err != nil {
			res.failed++
			if res.failure == nil {
				res.failure = err
			}
			continue
		}
		res.latUS = append(res.latUS, float64(lat)/1e3)
		if kind == opWrite {
			res.writeOps++
		} else {
			res.readOps++
			res.rows += inst.want[reader.order[(reader.pos-1)%len(reader.order)]].Rows
		}
	}
	return res
}

// diagnose is the traced run: the native fixed-operation pass untraced
// and traced, the same statements on the other surface, the layer
// probes, and the program's counters around them. It fills
// out.perLayer.
func diagnose(ctx context.Context, inst *instance, o options, out *outcome) error {
	sp := inst.sp
	ops := sp.tracedOps
	if o.smoke {
		ops = min(ops, 24)
	}
	m := out.perLayer
	set := func(name string, xs []float64) { m[name] = summarize(xs, unitOf(name)) }
	one := func(name string, x float64) { m[name] = summary{Value: x, Unit: unitOf(name), Min: x, Max: x, N: 1} }

	// The storage and scheduler counters are read around the whole traced
	// run, storage probe included: a workload that never reaches the disk
	// tier then still reports what the layer costs, from the probe's fixed
	// work, and no figure is a constant zero.
	runStart, err := promNow()
	if err != nil {
		return err
	}
	attempted0, wrote0, wpos0 := out.attempted, inst.workers[0].wroteBytes, inst.workers[0].wpos

	// Native pass, untraced then traced, three times over; the engine's
	// counters are read around the first traced pass.
	rec := newRecorder()
	var overhead []float64
	var window promSample
	var st pascalr.Stats
	var counted passResult
	for round := 0; round < 3; round++ {
		u := fixedPass(ctx, inst, ops, nil)
		if err := waitQuiesced(); err != nil {
			return err
		}
		before, err := promNow()
		if err != nil {
			return err
		}
		inst.db.ResetStats()
		t := fixedPass(ctx, inst, ops, rec)
		if round == 0 {
			st = inst.db.Stats()
			after, err := promNow()
			if err != nil {
				return err
			}
			window, counted = after.delta(before), t
		}
		for _, p := range []passResult{u, t} {
			out.attempted += ops
			out.failed += p.failed
			if p.failure != nil {
				out.fail("fixed pass: %v", p.failure)
			}
		}
		// Operations per second are the inverse of mean latency here: one
		// client, nothing between operations.
		overhead = append(overhead, ratio(mean(u.latUS), mean(t.latUS)))
	}
	nativeEnd, err := promNow()
	if err != nil {
		return err
	}
	out.spans = rec.spans
	set("obs.trace_overhead_ratio", overhead)
	shares, accounted := layerShares(rec.spans)
	out.notes = append(out.notes, shareNote(shares, accounted))

	nOps := float64(max(len(counted.latUS), 1))
	reads := float64(max(counted.readOps, 1))
	one("engine.tuples_read_per_op", float64(st.TuplesRead)/reads)
	one("engine.comparisons_per_op", float64(st.Comparisons)/reads)
	one("engine.index_probes_per_op", float64(st.IndexProbes)/reads)
	one("engine.ref_tuples_per_op", float64(st.RefTuples)/reads)
	one("engine.peak_ref_tuples", float64(st.PeakRefTuples))
	one("engine.rows_examined_per_row_returned", ratio(float64(st.TuplesRead), float64(counted.rows)))
	one("engine.batch_scan_share", ratio(window["pascal_engine_batch_rows_total"], float64(st.TuplesRead)))
	one("engine.batch_selected_ratio", ratio(window["pascal_engine_batch_selected_rows_total"], window["pascal_engine_batch_filter_rows_total"]))
	one("engine.stale_retries_per_kop", window["pascal_engine_stale_retries_total"]/nOps*1000)
	hits, misses := window["pascal_engine_plan_cache_hits_total"], window["pascal_engine_plan_cache_misses_total"]
	one("pascalr.plan_cache_hit_ratio", ratio(hits, hits+misses))

	// The same statements on both surfaces, whichever is native: the
	// in-process spans give the engine's phases, the loopback spans the
	// client, protocol and server figures, their difference the serving
	// overhead.
	tw, err := twinPasses(ctx, inst, o)
	if err != nil {
		return err
	}
	out.attempted += tw.attempted
	out.failed += tw.failed
	if tw.failure != nil {
		out.fail("twin pass: %v", tw.failure)
	}
	in := tw.inProc.spans
	pick := func(spans []span, name string) []float64 { s, _, _ := perOp(spans, named(name)); return s }
	set("engine.exec_us", pick(in, "pascalr:exec"))
	set("engine.collection_us", pick(in, "collection"))
	set("engine.combination_us", pick(in, "combination"))
	set("engine.construction_us", pick(in, "engine.construction:drain"))
	scanSum, _, scanMax := perOp(in, named("scan "))
	set("collection.scan_us", scanSum)
	set("collection.largest_scan_us", scanMax)
	joinSum, joinN, _ := perOp(in, named("join"))
	set("algebra.join_us", joinSum)
	one("algebra.joins_per_op", sum(joinN)/float64(max(tw.ops, 1)))
	scanQ, joinQ := qErrors(in)
	sort.Float64s(scanQ)
	one("engine.scan_qerror_p50", percentile(scanQ, 500))
	one("engine.scan_qerror_max", maxOf(scanQ))
	one("engine.join_qerror_max", maxOf(joinQ))

	_, fetchN, _ := perOp(tw.loopback.spans, named("fetch"))
	one("client.fetch_batches_per_op", sum(fetchN)/float64(max(tw.ops, 1)))
	set("client.roundtrip_us", tw.pingUS)
	one("server.frames_per_op", tw.framesPerOp)
	// Paired by operation: both surfaces ran the same statements in the
	// same order, and a statement's cost varies more between statements
	// than the serving overhead is large.
	var serving []float64
	for i := 0; i < min(len(tw.loopbackUS), len(tw.inProcUS)); i++ {
		serving = append(serving, tw.loopbackUS[i]-tw.inProcUS[i])
	}
	set("server.overhead_us", serving)

	fnStart, err := promNow()
	if err != nil {
		return err
	}
	if err := functionProbes(inst, o, m); err != nil {
		return err
	}
	fnEnd, err := promNow()
	if err != nil {
		return err
	}
	probe, err := storageProbe(o, m)
	if err != nil {
		return err
	}
	wp, err := writeProbe(ctx, inst, o, m)
	if err != nil {
		return err
	}
	out.attempted += wp.attempted
	out.failed += wp.failed
	if wp.failure != nil {
		out.fail("write probe: %v", wp.failure)
	}

	runEnd, err := promNow()
	if err != nil {
		return err
	}
	// Read-path ratios: the whole run but the function probes, whose
	// dereferences are not operations. Write-path ratios: the phases that
	// wrote single rows (the native passes, the write probe, the durable
	// probe's write phase), not the probes' bulk loads.
	rd := runEnd.delta(runStart).add(fnStart.delta(fnEnd))
	rdOps := float64(out.attempted-attempted0) + probe.ops
	bh, bm := rd["pascal_storage_block_cache_hits_total"], rd["pascal_storage_block_cache_misses_total"]
	one("storage.blockcache_hit_ratio", ratio(bh, bh+bm))
	one("storage.blockcache_evictions_per_kop", ratio(rd["pascal_storage_block_cache_evictions_total"], rdOps)*1000)
	one("storage.bloom_skip_ratio", ratio(rd["pascal_storage_bloom_skips_total"], rd["pascal_storage_bloom_skips_total"]+rd["pascal_storage_bloom_hits_total"]))
	one("storage.sstable_reads_per_op", ratio(rd["pascal_storage_sstable_reads_total"], rdOps))
	wr := nativeEnd.delta(runStart).add(wp.window).add(probe.writeWindow)
	wrWrites, wrUser := probe.writes, probe.userBytes
	if sp.disk { // a Memory workload's own writes reach no log
		wrWrites += float64(inst.workers[0].wpos - wpos0 + wp.writes)
		wrUser += float64(inst.workers[0].wroteBytes-wrote0) + wp.userBytes
	}
	one("storage.wal_fsyncs_per_write", ratio(wr["pascal_storage_wal_fsyncs_total"], wrWrites))
	one("storage.group_commit_batch_size", ratio(wr["pascal_storage_wal_appends_total"], wr["pascal_storage_group_commit_batches_total"]))
	one("storage.wal_bytes_per_user_byte", ratio(wr["pascal_storage_wal_bytes_total"], wrUser))
	one("storage.compaction_bytes_per_user_byte", ratio(wr["pascal_storage_compaction_bytes_total"], wrUser))
	one("sched.async_jobs_per_kwrite", ratio(wr["pascal_sched_async_jobs_total"], wrWrites)*1000)
	sw := runEnd.delta(runStart)
	one("storage.memtable_spills", sw["pascal_storage_memtable_spills_total"])
	one("storage.compactions", sw["pascal_storage_compactions_total"])
	one("storage.checkpoints", sw["pascal_storage_checkpoint_seconds_count"])
	one("storage.checkpoint_s_total", sw["pascal_storage_checkpoint_seconds_sum"])
	if !sp.disk {
		one("storage.tables_at_end", probe.tables)
		one("recovery_s", probe.recoveryS)
		one("disk_bytes_per_user_byte", probe.diskRatio)
	}
	one("error_rate", ratio(float64(out.failed), float64(out.attempted)))
	return nil
}

// add sums two counter windows.
func (a promSample) add(b promSample) promSample {
	out := make(promSample, len(a))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] += v
	}
	return out
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{perLayerMetrics, extraMetrics, endToEndMetrics} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}

// qErrors reads estimate quality off the adopted spans: scan spans
// carry est.<var>/actual.<var> per variable (estimates only under the
// cost-based planner), join spans est/actual. The q-error of a pair is
// max(est/actual, actual/est), cardinalities below one counted as one.
func qErrors(spans []span) (scans, joins []float64) {
	q := func(est, actual float64) float64 {
		est, actual = math.Max(est, 1), math.Max(actual, 1)
		return math.Max(est/actual, actual/est)
	}
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, "scan "):
			for k, v := range s.Attrs {
				name, ok := strings.CutPrefix(k, "est.")
				if !ok {
					continue
				}
				est, err1 := strconv.ParseFloat(v, 64)
				actual, err2 := strconv.ParseFloat(s.Attrs["actual."+name], 64)
				if err1 == nil && err2 == nil {
					scans = append(scans, q(est, actual))
				}
			}
		case s.Name == "join":
			est, err1 := strconv.ParseFloat(s.Attrs["est"], 64)
			actual, err2 := strconv.ParseFloat(s.Attrs["actual"], 64)
			if err1 == nil && err2 == nil {
				joins = append(joins, q(est, actual))
			}
		}
	}
	return scans, joins
}

// shareNote renders the traced pass's self-time split by layer.
func shareNote(shares map[string]float64, accounted float64) string {
	names := make([]string, 0, len(shares))
	for n := range shares {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return shares[names[i]] > shares[names[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "traced pass self time by layer (accounts for %.1f%% of op latency):", accounted*100)
	for _, n := range names {
		if shares[n] >= 0.005 {
			fmt.Fprintf(&b, " %s %.1f%%", n, shares[n]*100)
		}
	}
	return b.String()
}

// twinMaxStatements caps how many of the workload's statements the twin
// passes and the function probes use.
const twinMaxStatements = 17

// twin is the outcome of running the same read statements in-process
// and over loopback.
type twin struct {
	inProc, loopback     *recorder
	inProcUS, loopbackUS []float64 // untraced latencies, same operations
	pingUS               []float64
	framesPerOp          float64
	ops                  int
	attempted, failed    int
	failure              error
}

// twinPasses prepares up to twinMaxStatements of the workload's
// statements in-process and over a fresh loopback connection to the
// same database, and runs each surface untraced then traced over the
// same operation order.
func twinPasses(ctx context.Context, inst *instance, o options) (*twin, error) {
	qs := inst.in.qs[:min(len(inst.in.qs), twinMaxStatements)]
	rounds := max(1, 34/len(qs))
	if o.smoke {
		rounds = 1
	}
	tw := &twin{inProc: newRecorder(), loopback: newRecorder(), ops: len(qs) * rounds}

	// A server started here lives until tearDown: its Shutdown closes the
	// database.
	if inst.srv == nil {
		if err := inst.startServer(); err != nil {
			return nil, err
		}
	}
	conn, err := client.Dial(inst.srv.Addr().String())
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	stmts := inst.stmts // the in-process prepared workloads have them already
	if stmts == nil {
		if stmts, err = prepareLocal(inst.db, qs); err != nil {
			return nil, err
		}
	}
	lo := &worker{inst: inst, conn: conn}
	if lo.cstmts, err = prepareRemote(conn, qs); err != nil {
		return nil, err
	}
	for i := 0; i < 200; i++ {
		tw.pingUS = append(tw.pingUS, timeUS(func() { err = conn.Ping() }))
		if err != nil {
			return nil, err
		}
	}

	run := func(rec *recorder, loopback bool) []float64 {
		var lat []float64
		for i := 0; i < tw.ops; i++ {
			qi := i % len(qs)
			var t *opTrace
			if rec != nil {
				t = rec.beginOp(i)
			}
			t0 := time.Now()
			var d digest
			var err error
			if loopback {
				d, err = lo.readLoopback(qi, t)
			} else {
				d, err = readPrepared(ctx, stmts[qi], t)
			}
			us := float64(time.Since(t0)) / 1e3
			if ferr := t.finish(); err == nil {
				err = ferr
			}
			tw.attempted++
			if err == nil && d != inst.want[qi] {
				err = fmt.Errorf("%w: %s", errWrongResult, qs[qi].tmpl)
			}
			if err != nil {
				tw.failed++
				if tw.failure == nil {
					tw.failure = err
				}
				continue
			}
			lat = append(lat, us)
		}
		return lat
	}
	tw.inProcUS = run(nil, false)
	run(tw.inProc, false)
	before, err := promNow()
	if err != nil {
		return nil, err
	}
	tw.loopbackUS = run(nil, true)
	after, err := promNow()
	if err != nil {
		return nil, err
	}
	tw.framesPerOp = after.delta(before)["pascal_server_frames_total"] / float64(tw.ops)
	run(tw.loopback, true)
	return tw, nil
}
