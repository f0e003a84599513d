package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pascalr"
	"pascalr/client"
	"pascalr/internal/calculus"
	"pascalr/internal/colbatch"
	"pascalr/internal/engine"
	"pascalr/internal/normalize"
	"pascalr/internal/optimizer"
	"pascalr/internal/parser"
	"pascalr/internal/protocol"
	"pascalr/internal/relation"
	"pascalr/internal/stats"
	"pascalr/internal/storage"
	"pascalr/internal/value"
	"pascalr/internal/workload"
)

// probeScale is the university scale of the databases the layer probes
// build for themselves; probe statements are generated for it, so their
// constants fit its subranges.
const probeScale = 2000

// timeUS runs fn and returns how long it took in microseconds.
func timeUS(fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0)) / 1e3
}

// openProbeDB builds the relation-layer database the probes call into,
// on the workload's backend: in memory, or disk-backed with every row
// checkpointed into SSTables and reopened under the workload's fsync
// policy.
func openProbeDB(disk bool, n int, workdir string) (db *relation.DB, cleanup func(), err error) {
	cfg := workload.DefaultConfig(n)
	if !disk {
		db, err = workload.University(cfg)
		return db, func() { db.Close() }, err
	}
	dir, err := os.MkdirTemp(workdir, "probe-")
	if err != nil {
		return nil, nil, err
	}
	cleanup = func() { os.RemoveAll(dir) }
	load, err := relation.OpenDB(dir, storage.Options{Fsync: storage.SyncNever})
	if err == nil {
		if err = workload.DefineSchema(load, cfg); err == nil {
			err = workload.Populate(load, cfg)
		}
		if cerr := load.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		db, err = relation.OpenDB(dir, storage.Options{})
	}
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	return db, func() { db.Close(); os.RemoveAll(dir) }, nil
}

// functionProbes times calls into each compile-side layer's public
// functions over the workload's own statements, and the relation
// layer's insert, dereference and estimator snapshot, on a probe
// database of the workload's backend.
func functionProbes(inst *instance, o options, m map[string]summary) error {
	sp := inst.sp
	n := min(inst.n, probeScale)
	db, cleanup, err := openProbeDB(sp.disk, n, o.workdir)
	if err != nil {
		return err
	}
	defer cleanup()
	qs := sp.generate(o.seed, n).qs
	qs = qs[:min(len(qs), twinMaxStatements)]
	iters := 20
	if o.smoke {
		iters = 2
	}
	var parse, check, standardize, transform, compile, compileSelf []float64
	eng := engine.New(db, &stats.Counters{})
	for it := 0; it < iters; it++ {
		for _, q := range qs {
			var sel, checked *calculus.Selection
			var info *calculus.Info
			var sf *normalize.StandardForm
			var err error
			parse = append(parse, timeUS(func() { sel, err = parser.ParseSelection(q.src) }))
			if err != nil {
				return fmt.Errorf("probe parse %s: %w", q.tmpl, err)
			}
			check = append(check, timeUS(func() { checked, info, err = calculus.Check(sel, db.Catalog()) }))
			if err != nil {
				return fmt.Errorf("probe check %s: %w", q.tmpl, err)
			}
			st := timeUS(func() { sf, err = normalize.Standardize(checked, normalize.Options{}) })
			if err != nil {
				return fmt.Errorf("probe standardize %s: %w", q.tmpl, err)
			}
			// The transformations engine.Compile applies under
			// AllStrategies, cost-gated when the statement plans cost-based.
			var cm optimizer.CostModel
			if q.cost {
				cm = db.Estimator()
			}
			tr := timeUS(func() {
				ext, _ := optimizer.ExtractRangesCost(sf, cm)
				optimizer.EliminateQuantifiersCost(optimizer.FromStandardForm(ext), cm)
			})
			co := timeUS(func() {
				_, err = eng.Compile(checked, info, engine.Options{Strategies: engine.AllStrategies, CostBased: q.cost})
			})
			if err != nil {
				return fmt.Errorf("probe compile %s: %w", q.tmpl, err)
			}
			standardize, transform, compile = append(standardize, st), append(transform, tr), append(compile, co)
			compileSelf = append(compileSelf, max(co-st-tr, 0))
		}
	}
	m["parser.parse_us"] = summarize(parse, "us")
	m["calculus.check_us"] = summarize(check, "us")
	m["normalize.standardize_us"] = summarize(standardize, "us")
	m["optimizer.transform_us"] = summarize(transform, "us")
	m["engine.compile_us"] = summarize(compile, "us")
	m["engine.compile_self_us"] = summarize(compileSelf, "us")

	// Prepare on the workload's own database, through the public surface.
	var prepare []float64
	own := inst.in.qs[:min(len(inst.in.qs), twinMaxStatements)]
	for it := 0; it < iters; it++ {
		for _, q := range own {
			var err error
			prepare = append(prepare, timeUS(func() { _, err = inst.db.Prepare(q.src, queryOpts(q)...) }))
			if err != nil {
				return err
			}
		}
	}
	m["pascalr.prepare_us"] = summarize(prepare, "us")

	// Dereference: the construction phase's per-row call.
	refs := db.MustRelation("employees").Refs()
	refs = refs[:min(len(refs), 1000)]
	var deref []float64
	for it := 0; it < 5; it++ {
		var err error
		us := timeUS(func() {
			for _, r := range refs {
				if _, err = db.Deref(r); err != nil {
					return
				}
			}
		})
		if err != nil {
			return err
		}
		deref = append(deref, us/float64(len(refs)))
	}
	m["relation.deref_us"] = summarize(deref, "us")

	// Insert, and the estimator snapshot right after the mutation.
	papers := db.MustRelation("papers")
	var insert, snapshot []float64
	for i := 0; i < 10*iters; i++ {
		tup := []value.Value{value.Int(int64(1 + i%n)), value.Int(1960), value.String_(fmt.Sprintf("probe%07d", i))}
		var err error
		insert = append(insert, timeUS(func() { _, err = papers.Insert(tup) }))
		if err != nil {
			return err
		}
		snapshot = append(snapshot, timeUS(func() { db.Estimator() }))
	}
	m["relation.insert_us"] = summarize(insert, "us")
	m["stats.estimator_snapshot_us"] = summarize(snapshot, "us")

	// Frame encoding and decoding of the workload's actual result rows.
	var rows [][]any
	for _, q := range own {
		res, err := inst.db.Query(q.src, append(queryOpts(q), pascalr.WithoutPlanCache())...)
		if err != nil {
			return err
		}
		if rows = append(rows, res.Rows()...); len(rows) >= 8192 {
			break
		}
	}
	if len(rows) == 0 {
		return fmt.Errorf("%s: no result rows to encode", sp.name)
	}
	var encode, decode []float64
	var payload []byte
	for it := 0; it < 10; it++ {
		var err error
		encode = append(encode, timeUS(func() {
			w := protocol.NewWriter()
			err = w.Rows(rows)
			payload = w.Bytes()
		})/float64(len(rows))*1000)
		if err != nil {
			return err
		}
		decode = append(decode, timeUS(func() { _, err = protocol.NewReader(payload).Rows() })/float64(len(rows))*1000)
		if err != nil {
			return err
		}
	}
	m["protocol.encode_us_per_krow"] = summarize(encode, "us")
	m["client.decode_us_per_krow"] = summarize(decode, "us")
	bpr := float64(len(payload)) / float64(len(rows))
	m["protocol.bytes_per_row"] = summary{Value: bpr, Unit: "B", Min: bpr, Max: bpr, N: len(rows)}
	return nil
}

// storageProbeResult carries what the storage probe's own small durable
// database did, the fallback for workloads that never reach the disk
// tier.
type storageProbeResult struct {
	writeWindow            promSample // the counters around the write phase
	ops, writes, userBytes float64
	tables                 float64
	recoveryS, diskRatio   float64
}

// storageProbe times the storage layer's public functions — batch scans
// of a timetable-shaped relation resident in memory and in SSTables,
// point gets with and without the block cache, key lookups, WAL append
// and durable wait — and runs a small durable database through loads,
// SyncAlways writes, spills, checkpoints and a reopen.
func storageProbe(o options, m map[string]summary) (*storageProbeResult, error) {
	dir, err := os.MkdirTemp(o.workdir, "storage-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	n := probeScale
	if o.smoke {
		n = 100
	}

	// Batch scans through the relation layer, which configures the batch
	// for the backend's fill.
	scan := func(disk bool) ([]float64, error) {
		db, cleanup, err := openProbeDB(disk, n, dir)
		if err != nil {
			return nil, err
		}
		defer cleanup()
		rel := db.MustRelation("timetable")
		b := colbatch.New(len(rel.Schema().Cols), 1024)
		var out []float64
		for it := 0; it < 12; it++ {
			rows := 0
			var err error
			us := timeUS(func() {
				db.RLock()
				defer db.RUnlock()
				err = rel.ScanBatches(&stats.Counters{}, 0, rel.SlotSpan(), b, nil, func() error { rows += b.Len(); return nil })
			})
			if err != nil {
				return nil, err
			}
			if it >= 2 { // the first scans warm the page cache
				out = append(out, us*1000/float64(max(rows, 1)))
			}
		}
		return out, nil
	}
	memScan, err := scan(false)
	if err != nil {
		return nil, err
	}
	diskScan, err := scan(true)
	if err != nil {
		return nil, err
	}
	m["storage.mem_scan_ns_per_row"] = summarize(memScan, "ns")
	m["storage.disk_scan_ns_per_row"] = summarize(diskScan, "ns")
	r := ratio(median(diskScan), median(memScan))
	m["storage.disk_vs_mem_scan_ratio"] = summary{Value: r, Unit: "ratio", Min: r, Max: r, N: len(diskScan)}

	// Point reads against one raw SSTable-resident backend.
	gen, err := workload.University(workload.DefaultConfig(n))
	if err != nil {
		return nil, err
	}
	tuples := gen.MustRelation("timetable").Tuples()
	rawDir := filepath.Join(dir, "raw")
	if err := os.Mkdir(rawDir, 0o755); err != nil {
		return nil, err
	}
	disk := storage.NewDisk(rawDir, 1, storage.Options{}, storage.NewBlockCache(8<<20))
	keys := make([]string, len(tuples))
	for i, t := range tuples {
		keys[i] = value.EncodeKey(t[:3])
		if _, err := disk.Append(keys[i], t); err != nil {
			return nil, err
		}
	}
	if err := disk.Flush(); err != nil {
		return nil, err
	}
	defer disk.Close()
	cold, err := storage.OpenDisk(rawDir, 1, storage.Options{}, nil, disk.Meta())
	if err != nil {
		return nil, err
	}
	defer cold.Close()
	rng := rand.New(rand.NewSource(o.seed))
	var get, getCold, lookup []float64
	for i := 0; i < 2000; i++ {
		si := rng.Intn(len(tuples))
		var err error
		get = append(get, timeUS(func() { _, _, err = disk.Get(si) }))
		if err != nil {
			return nil, err
		}
		getCold = append(getCold, timeUS(func() { _, _, err = cold.Get(si) }))
		if err != nil {
			return nil, err
		}
		ok := false
		lookup = append(lookup, timeUS(func() { _, ok = disk.LookupKey(keys[si]) }))
		if !ok {
			return nil, fmt.Errorf("storage probe: key of slot %d not found", si)
		}
	}
	m["storage.disk_get_us"] = summarize(get, "us")
	m["storage.disk_get_cold_us"] = summarize(getCold, "us")
	m["storage.lookupkey_us"] = summarize(lookup, "us")

	// WAL append and the durable wait, SyncAlways.
	walDir := filepath.Join(dir, "wal")
	if err := os.Mkdir(walDir, 0o755); err != nil {
		return nil, err
	}
	wal, _, err := storage.RecoverWAL(walDir, storage.SyncAlways)
	if err != nil {
		return nil, err
	}
	defer wal.Close()
	payload := make([]byte, 96)
	var appendUS, waitUS []float64
	for i := 0; i < 300; i++ {
		var tk storage.Ticket
		var err error
		appendUS = append(appendUS, timeUS(func() { tk, err = wal.Append(payload) }))
		if err != nil {
			return nil, err
		}
		waitUS = append(waitUS, timeUS(func() { err = wal.WaitDurable(tk) }))
		if err != nil {
			return nil, err
		}
	}
	m["storage.wal_append_us"] = summarize(appendUS, "us")
	m["storage.wal_wait_durable_us"] = summarize(waitUS, "us")

	return durableProbe(filepath.Join(dir, "db"), o)
}

// durableProbe drives a small durable database through the public
// surface so every storage counter moves: a bulk load, a reopen,
// SyncAlways inserts and deletes over tiny memtable and checkpoint
// budgets, reads that go through the block cache and bloom filters, and
// a final reopen timed as recovery.
func durableProbe(dir string, o options) (*storageProbeResult, error) {
	n := 300
	if o.smoke {
		n = 30
	}
	script, err := workload.UniversityScript(n)
	if err != nil {
		return nil, err
	}
	small := []pascalr.DirOption{pascalr.WithMemtableEntries(128), pascalr.WithCheckpointWALBytes(16 << 10)}
	db, err := pascalr.OpenDir(dir, append(small, pascalr.WithFsyncNever())...)
	if err != nil {
		return nil, err
	}
	if err := db.Exec(script); err != nil {
		db.Close()
		return nil, err
	}
	if err := db.Close(); err != nil {
		return nil, err
	}
	if db, err = pascalr.OpenDir(dir, small...); err != nil {
		return nil, err
	}
	res := &storageProbeResult{}
	before, err := promNow()
	if err != nil {
		db.Close()
		return nil, err
	}
	ops := writeOps(rand.New(rand.NewSource(o.seed)), n, 2*n, "s")
	for i, op := range ops {
		if err := db.Exec(op.src()); err != nil {
			db.Close()
			return nil, err
		}
		if !op.del {
			res.userBytes += float64(op.userBytes())
		}
		if i%20 == 0 {
			if _, err := db.Query(srcThreeWayJoin); err != nil {
				db.Close()
				return nil, err
			}
			res.ops++
		}
	}
	res.writes = float64(len(ops))
	res.ops += res.writes
	if err := waitQuiesced(); err != nil {
		db.Close()
		return nil, err
	}
	after, err := promNow()
	if err != nil {
		db.Close()
		return nil, err
	}
	res.writeWindow = after.delta(before)
	if res.diskRatio, res.tables, err = diskFootprint(db, dir); err != nil {
		db.Close()
		return nil, err
	}
	if err := db.Close(); err != nil {
		return nil, err
	}
	if res.recoveryS, err = timeRecovery(dir, small); err != nil {
		return nil, err
	}
	return res, nil
}

// expectedUnderWrites reports whether a read failed only because a
// writer changed the relations it reads: a result that differs from the
// oracle's, or a cursor whose referenced row was deleted.
func expectedUnderWrites(err error) bool {
	return errors.Is(err, errWrongResult) || errors.Is(err, pascalr.ErrStaleRead) || errors.Is(err, client.ErrStaleRead)
}

// writeProbeResult is what the write probe did to the workload's own
// database.
type writeProbeResult struct {
	window            promSample
	attempted, failed int
	writes            int
	userBytes         float64
	failure           error
}

// writeProbe measures single-row write latency on the workload's own
// database and surface: a writer alone, then the same writer beside one
// reader looping over the workload's reads. On the writer workload the
// reads stay checked: its papers never have pyear = 1977. The other
// workloads read papers freely, so there a changed result or a surfaced
// stale read is the expected effect of the probe, not a failure. It runs
// last, because it mutates the database.
func writeProbe(ctx context.Context, inst *instance, o options, m map[string]summary) (*writeProbeResult, error) {
	solo, contended := 300, 1000
	if inst.sp.writer {
		contended = 3000 // enough for the writer workload's spills and a checkpoint
	}
	if o.smoke {
		solo, contended = 20, 40
	}
	res := &writeProbeResult{}
	w := &worker{inst: inst}
	if inst.sp.loopback {
		conn, err := client.Dial(inst.srv.Addr().String())
		if err != nil {
			return nil, err
		}
		defer conn.Close()
		w.conn = conn
	}
	w.becomeWriter(writeOps(rand.New(rand.NewSource(o.seed+1)), inst.n, solo+contended, "p"))
	before, err := promNow()
	if err != nil {
		return nil, err
	}
	run := func(count int) []float64 {
		var lat []float64
		for i := 0; i < count; i++ {
			var err error
			us := timeUS(func() { err = w.write(nil) })
			res.attempted++
			if err != nil {
				res.failed++
				if res.failure == nil {
					res.failure = err
				}
				continue
			}
			lat = append(lat, us)
		}
		return lat
	}
	soloUS := run(solo)

	reader := inst.workers[len(inst.workers)-1]
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var readFailure error
	reads, readsFailed := 0, 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, err := reader.next(ctx, nil)
			reads++
			if err != nil && (inst.sp.writer || !expectedUnderWrites(err)) {
				readsFailed++
				if readFailure == nil {
					readFailure = err
				}
			}
		}
	}()
	contendedUS := run(contended)
	close(stop)
	wg.Wait()
	res.attempted += reads
	res.failed += readsFailed
	if res.failure == nil {
		res.failure = readFailure
	}
	if err := waitQuiesced(); err != nil {
		return nil, err
	}
	after, err := promNow()
	if err != nil {
		return nil, err
	}
	res.window = after.delta(before)
	res.writes = solo + contended
	res.userBytes = float64(w.wroteBytes)

	m["relation.write_solo_p50_us"] = summarize(soloUS, "us")
	r := ratio(median(contendedUS), median(soloUS))
	m["relation.write_contention_ratio"] = summary{Value: r, Unit: "ratio", Min: r, Max: r, N: len(contendedUS)}
	ms := make([]float64, len(contendedUS))
	for i, us := range contendedUS {
		ms[i] = us / 1e3
	}
	if err := latencyMetrics(m, "write", ms, o.smoke); err != nil {
		return nil, err
	}
	return res, nil
}
