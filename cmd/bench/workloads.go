package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"runtime"
	"time"

	"pascalr"
	"pascalr/client"
	"pascalr/internal/obs"
	"pascalr/internal/server"
	"pascalr/internal/workload"
)

// clients is the closed-loop client count of every workload: one per
// core of the 2-core box the bounds in BENCHMARK.json were fixed on.
const clients = 2

// spec describes one workload. The names are final: later issues cite
// them.
type spec struct {
	name string
	why  string
	// scale is workload.DefaultConfig's n: n employees, 2n papers,
	// n/2+1 courses, 2n timetable rows.
	scale    int
	disk     bool // storage.Disk, every row SSTable-resident; else storage.Memory
	loopback bool // client -> internal/server over loopback TCP; else in-process
	adhoc    bool // one-shot Session.Query through the plan cache; else prepared
	writer   bool // client 0 writes, client 1 reads
	// reopen are the options the loaded directory is reopened with.
	reopen  []pascalr.DirOption
	queries func(rng *rand.Rand, n int) []query
	// tracedOps is the fixed operation count of the traced pass.
	tracedOps int
}

var specs = []*spec{
	{
		name:  "paper_mix_mem",
		why:   "the paper's six Figure 1 queries prepared under both planners: collection, combination and construction do all the work",
		scale: 2000, tracedOps: 120,
		queries: func(*rand.Rand, int) []query { return paperMixQueries() },
	},
	{
		name:  "adhoc_compile_mem",
		why:   "512 distinct one-shot texts on tiny data through the 64-entry plan cache: parse, check, standardize, optimize and compile dominate",
		scale: 50, adhoc: true, tracedOps: 1024,
		queries: adhocQueries,
	},
	{
		name:  "selective_scan_disk",
		why:   "selective scans over SSTable-resident relations larger than the block cache: storage read, batch fill and bitmap predicates are the op",
		scale: 16000, disk: true, tracedOps: 68,
		queries: selectiveScanQueries,
	},
	{
		name:  "wide_fetch_loopback",
		why:   "5000-row string-bearing join results drained over loopback TCP: construction, frame encoding, fetch round trips and client decode are the cost",
		scale: 2500, loopback: true, tracedOps: 24,
		queries: func(*rand.Rand, int) []query { return wideFetchQueries() },
	},
	{
		name:  "mixed_rw_disk_loopback",
		why:   "a SyncAlways writer beside a reader on one disk database over loopback: lock wait, WAL fsync, group commit, spills, compactions and checkpoints",
		scale: 1500, disk: true, loopback: true, writer: true, tracedOps: 160,
		// A 128 KiB WAL budget and a 1024-entry memtable, so that several
		// checkpoints and spills complete within one run's six thousand
		// writes.
		reopen:  []pascalr.DirOption{pascalr.WithCheckpointWALBytes(128 << 10), pascalr.WithMemtableEntries(1024)},
		queries: func(*rand.Rand, int) []query { return mixedReadQueries() },
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// inputs is everything a seed determines for one workload: the
// statements, each client's schedule, and the writer's mutations.
type inputs struct {
	qs     []query
	orders [][]int
	writes []writeOp
}

// scheduleLen bounds a client's closed-loop schedule; clients wrap
// around it.
const scheduleLen = 4096

// writeListLen is the pre-rendered writer schedule. Keys are fresh, so
// it cannot wrap; a run that exhausts it fails.
const writeListLen = 100000

func (sp *spec) generate(seed int64, n int) inputs {
	rng := rand.New(rand.NewSource(seed*7919 + int64(len(sp.name))))
	in := inputs{qs: sp.queries(rng, n)}
	for c := 0; c < clients; c++ {
		if sp.adhoc {
			in.orders = append(in.orders, uniformOrder(rng, len(in.qs), scheduleLen))
		} else {
			in.orders = append(in.orders, opOrder(rng, len(in.qs), scheduleLen))
		}
	}
	if sp.writer {
		in.writes = writeOps(rng, n, writeListLen, "w")
	}
	return in
}

// instance is one set-up workload: the loaded database, the server in
// front of it when the surface is loopback, and the clients.
type instance struct {
	sp      *spec
	n       int
	in      inputs
	db      *pascalr.Database
	dir     string // data directory of a disk workload
	srv     *server.Server
	stmts   []*pascalr.Stmt // in-process prepared statements, shared by the clients
	workers []*worker
	ackers  []*worker // every worker that wrote, for the crash-copy check
	want    []digest  // per statement, what every read is checked against
}

// worker is one closed-loop client.
type worker struct {
	inst   *instance
	sess   *pascalr.Session // in-process surfaces
	conn   *client.Conn     // loopback surface
	cstmts []*client.Stmt
	order  []int
	pos    int
	// writer state: the next mutation, the bytes of the tuples inserted
	// so far, and the acknowledged keys the crash-copy check looks for.
	writes     []writeOp
	wpos       int
	wroteBytes int64
	live, gone map[string]int
	// credit paces the writer of the mixed workload: every completed read
	// grants writesPerRead writes, so the mix of operations, and with it
	// every per-operation cost, does not drift with the two clients'
	// relative speed. grant is the reader's end of the writer's channel;
	// stop ends a wait for credit when the timed repetition is over.
	credit chan struct{}
	grant  chan<- struct{}
	stop   <-chan struct{}
}

// writesPerRead is the mixed workload's mix. The writer alone sustains
// more than this many writes per read, so the reader sets the pace and
// the writer idles a little; a write path that got much slower would
// drop below the ratio and show in ops_per_s.
const writesPerRead = 3

// errStopped ends a writer's wait for credit at the end of a repetition;
// it is not an operation.
var errStopped = errors.New("repetition over")

// stopwatch times set-up with its nondeterministic parts excluded.
type stopwatch struct {
	total time.Duration
	since time.Time
}

func (s *stopwatch) resume() { s.since = time.Now() }
func (s *stopwatch) pause()  { s.total += time.Since(s.since) }

// setUp loads and opens one instance and reports setup_s (script
// render, Exec or load-close-reopen, server start, dial, prepare; not
// temp-dir creation or the first dial) and heap_mb: how much the live
// heap (HeapAlloc after a forced GC) grew over set-up, once background
// statistics rebuilds have drained: the standing cost of the loaded
// database and its clients. HeapInuse would add span fragmentation,
// which varies by a tenth from one set-up to the next; the absolute
// live heap would add whatever earlier workloads of the same process
// left behind.
func (sp *spec) setUp(seed int64, n int, workdir string) (inst *instance, setupS, heapMB float64, err error) {
	before := liveHeap()
	inst = &instance{sp: sp, n: n, in: sp.generate(seed, n)}
	defer func(built *instance) {
		if err != nil {
			built.tearDown()
		}
	}(inst)
	var sw stopwatch
	if sp.disk {
		if inst.dir, err = os.MkdirTemp(workdir, sp.name+"-"); err != nil {
			return nil, 0, 0, err
		}
	}
	sw.resume()
	script, err := workload.UniversityScript(n)
	if err != nil {
		return nil, 0, 0, err
	}
	if sp.disk {
		// Load without fsync, close (which checkpoints every row into
		// SSTables), reopen with the options the workload runs under.
		db, err := pascalr.OpenDir(inst.dir, pascalr.WithFsyncNever())
		if err != nil {
			return nil, 0, 0, err
		}
		if err := db.Exec(script); err != nil {
			db.Close()
			return nil, 0, 0, err
		}
		if err := db.Close(); err != nil {
			return nil, 0, 0, err
		}
		if inst.db, err = pascalr.OpenDir(inst.dir, sp.reopen...); err != nil {
			return nil, 0, 0, err
		}
	} else if inst.db, err = pascalr.Open(script); err != nil {
		return nil, 0, 0, err
	}
	if sp.loopback {
		if err := inst.startServer(); err != nil {
			return nil, 0, 0, err
		}
	}
	for c := 0; c < clients; c++ {
		w := &worker{inst: inst, order: inst.in.orders[c]}
		if sp.loopback {
			if c == 0 {
				sw.pause()
			}
			w.conn, err = client.Dial(inst.srv.Addr().String())
			if c == 0 {
				sw.resume()
			}
			if err != nil {
				return nil, 0, 0, err
			}
		} else {
			w.sess = inst.db.NewSession()
		}
		inst.workers = append(inst.workers, w)
		if sp.writer && c == 0 {
			w.becomeWriter(inst.in.writes)
			w.credit = make(chan struct{}, writesPerRead)
			continue // the writer prepares nothing
		}
		if sp.writer {
			w.grant = inst.workers[0].credit
		}
		if err := w.prepare(); err != nil {
			return nil, 0, 0, err
		}
	}
	sw.pause()
	if err := waitQuiesced(); err != nil {
		return nil, 0, 0, err
	}
	return inst, sw.total.Seconds(), float64(liveHeap()-before) / (1 << 20), nil
}

// liveHeap is HeapAlloc after a forced collection; the second pass
// frees what the first one's finalizers released.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func (inst *instance) startServer() error {
	inst.srv = server.New(inst.db, server.Config{
		Addr:   "127.0.0.1:0",
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	return inst.srv.Start()
}

func queryOpts(q query) []pascalr.Option {
	if q.cost {
		return []pascalr.Option{pascalr.WithCostBased()}
	}
	return nil
}

// prepare readies the worker's statements: over its connection on the
// loopback surface, once per instance in-process (a Stmt is safe for
// concurrent use). Ad-hoc workloads prepare nothing.
func (w *worker) prepare() error {
	inst := w.inst
	if inst.sp.adhoc {
		return nil
	}
	var err error
	if w.conn != nil {
		w.cstmts, err = prepareRemote(w.conn, inst.in.qs)
	} else if inst.stmts == nil {
		inst.stmts, err = prepareLocal(inst.db, inst.in.qs)
	}
	return err
}

func prepareLocal(db *pascalr.Database, qs []query) ([]*pascalr.Stmt, error) {
	stmts := make([]*pascalr.Stmt, 0, len(qs))
	for _, q := range qs {
		st, err := db.Prepare(q.src, queryOpts(q)...)
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", q.tmpl, err)
		}
		stmts = append(stmts, st)
	}
	return stmts, nil
}

func prepareRemote(conn *client.Conn, qs []query) ([]*client.Stmt, error) {
	stmts := make([]*client.Stmt, 0, len(qs))
	for _, q := range qs {
		st, err := conn.Prepare(q.src, client.Options{HasCostBased: q.cost, CostBased: q.cost})
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", q.tmpl, err)
		}
		stmts = append(stmts, st)
	}
	return stmts, nil
}

func (w *worker) becomeWriter(ops []writeOp) {
	w.writes, w.live, w.gone = ops, map[string]int{}, map[string]int{}
	w.inst.ackers = append(w.inst.ackers, w)
}

// tearDown stops the server, closes the database and removes the data
// directory. It is safe on a partly set-up instance.
func (inst *instance) tearDown() error {
	var errs []error
	for _, w := range inst.workers {
		if w.conn != nil {
			errs = append(errs, w.conn.Close())
		}
	}
	if inst.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, inst.srv.Shutdown(ctx))
		cancel()
	}
	if inst.db != nil {
		errs = append(errs, inst.db.Close())
	}
	if inst.dir != "" {
		errs = append(errs, os.RemoveAll(inst.dir))
	}
	return errors.Join(errs...)
}

// opKind tells reads from writes in the latency samples.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
)

// errWrongResult marks a read whose digest differs from the oracle's.
var errWrongResult = errors.New("wrong result")

// next runs the worker's next operation and checks its result.
func (w *worker) next(ctx context.Context, t *opTrace) (opKind, error) {
	if w.writes != nil {
		if w.credit != nil {
			select {
			case <-w.credit:
			case <-w.stop:
				return opWrite, errStopped
			}
		}
		return opWrite, w.write(t)
	}
	qi := w.order[w.pos%len(w.order)]
	w.pos++
	err := w.read(ctx, qi, t)
	for i := 0; w.grant != nil && i < writesPerRead; i++ {
		select {
		case w.grant <- struct{}{}:
		default: // the writer has not used up its last grant
		}
	}
	return opRead, err
}

// read runs statement qi on the worker's surface, drains the result and
// compares its digest with the oracle's.
func (w *worker) read(ctx context.Context, qi int, t *opTrace) error {
	var d digest
	var err error
	switch {
	case w.conn != nil:
		d, err = w.readLoopback(qi, t)
	case w.inst.sp.adhoc:
		d, err = w.readOneShot(ctx, qi, t)
	default:
		d, err = readPrepared(ctx, w.inst.stmts[qi], t)
	}
	if err != nil {
		return err
	}
	if want := w.inst.want[qi]; d != want {
		return fmt.Errorf("%w: %s: got %+v, want %+v", errWrongResult, w.inst.in.qs[qi].tmpl, d, want)
	}
	return nil
}

// readPrepared re-executes a prepared statement in-process and drains
// its cursor.
func readPrepared(ctx context.Context, st *pascalr.Stmt, t *opTrace) (digest, error) {
	var d digest
	ctx, otr := t.obsTrace(ctx)
	e := t.start("pascalr:exec")
	rows, err := st.Rows(ctx)
	t.end(e)
	t.adoptLater(otr, e)
	if err != nil {
		return d, err
	}
	c := t.start("engine.construction:drain")
	for rows.Next() {
		d.add(rows.Values())
	}
	err = rows.Err()
	rows.Close()
	t.end(c)
	return d, err
}

// readOneShot sends the text through Session.Query and its plan cache.
func (w *worker) readOneShot(ctx context.Context, qi int, t *opTrace) (digest, error) {
	ctx, otr := t.obsTrace(ctx)
	e := t.start("pascalr:query")
	res, err := w.sess.Query(ctx, w.inst.in.qs[qi].src)
	t.end(e)
	t.adoptLater(otr, e)
	if err != nil {
		return digest{}, err
	}
	c := t.start("pascalr:convert")
	d := digestOf(res.Rows())
	t.end(c)
	return d, nil
}

// readLoopback executes the connection's prepared statement and drains
// the cursor through fetch batches. Traced, it then adopts the span
// tree the server recorded for the statement.
func (w *worker) readLoopback(qi int, t *opTrace) (digest, error) {
	var d digest
	e := t.start("client:execute")
	rows, err := w.cstmts[qi].Execute()
	t.end(e)
	if err != nil {
		return d, err
	}
	c := t.start("client:drain")
	for rows.Next() {
		d.add(rows.Values())
	}
	err = rows.Err()
	rows.Close()
	t.end(c)
	if t != nil && err == nil {
		t.after = func() error { return t.adoptServer(w.conn, e, c) }
	}
	return d, err
}

// write sends the writer's next mutation and, once acknowledged,
// records it for the crash-copy check.
func (w *worker) write(t *opTrace) error {
	if w.wpos >= len(w.writes) {
		return errors.New("writer schedule exhausted")
	}
	op := w.writes[w.wpos]
	w.wpos++
	e := t.start("client:exec")
	var err error
	if w.conn != nil {
		err = w.conn.Exec(op.src())
	} else {
		err = w.inst.db.Exec(op.src())
	}
	t.end(e)
	if err != nil {
		return err
	}
	if op.del {
		delete(w.live, op.title)
		w.gone[op.title] = op.penr
	} else {
		w.live[op.title] = op.penr
		delete(w.gone, op.title)
		w.wroteBytes += op.userBytes()
	}
	return nil
}

// opTrace records the bench-owned spans of one operation. All methods
// are safe on a nil receiver and then do nothing, so the untraced pass
// runs the same code.
type opTrace struct {
	rec  *recorder
	op   int
	root int
	// obsBase is when the operation's obs trace started, in recorder
	// time.
	obsBase int64
	// after adopts the program's own span tree once the operation's root
	// span has ended, so that fetching and copying it is not timed.
	after func() error
}

func (r *recorder) beginOp(op int) *opTrace {
	return &opTrace{rec: r, op: op, root: r.start("bench:op", -1, op)}
}

// finish ends the operation's root span, then adopts the program's span
// tree for it.
func (t *opTrace) finish() error {
	if t == nil {
		return nil
	}
	t.rec.end(t.root)
	if t.after != nil {
		return t.after()
	}
	return nil
}

func (t *opTrace) start(name string) int {
	if t == nil {
		return -1
	}
	return t.rec.start(name, t.root, t.op)
}

func (t *opTrace) end(id int) {
	if t != nil {
		t.rec.end(id)
	}
}

// obsTrace attaches a fresh obs.Trace to ctx, so the program records
// its own span tree for the operation.
func (t *opTrace) obsTrace(ctx context.Context) (context.Context, *obs.Trace) {
	if t == nil {
		return ctx, nil
	}
	t.obsBase = t.rec.now()
	tr := obs.NewTrace("")
	return obs.With(ctx, tr.Root()), tr
}

// adoptLater arranges for the program's span tree to be copied under the
// bench span that timed the call.
func (t *opTrace) adoptLater(tr *obs.Trace, parent int) {
	if t == nil {
		return
	}
	t.after = func() error {
		tr.Finish()
		root := tr.Snapshot().Root
		if len(root.Attrs) > 0 {
			t.rec.spans[parent].Attrs = root.Attrs
		}
		t.rec.adopt(root, t.obsBase, parent, t.op)
		return nil
	}
}
