package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"pascalr"
	"pascalr/internal/obs"
	"pascalr/internal/protocol"
)

// session is one accepted connection. The protocol is a strict
// request/response alternation, so a single goroutine owns the
// connection's read and write side; Kill and Shutdown interact with it
// only through the session context and by closing the connection.
type session struct {
	srv  *Server
	id   uint64
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	ps *pascalr.Session

	// ctx is the session's root context: every statement context derives
	// from it, so cancelling it (kill, forced shutdown) aborts whatever
	// the session is executing at the engine's cancellation checkpoints.
	ctx      context.Context
	cancelFn context.CancelFunc

	mu       sync.Mutex
	busy     bool
	draining bool
	killed   bool
	state    string
	query    string
	since    time.Time

	// traceID names the most recent statement trace; it is retained
	// after the statement finishes so a process-list reader can correlate
	// a KILL target with its trace in the slow-query log and /metrics.
	traceID   string
	lastTrace *obs.Trace

	// open prepared statements and their cursors, keyed by the id handed
	// to the client in StmtBound.
	stmts      map[uint64]*serverStmt
	nextStmtID uint64

	// batchOut is the RowBatch payload buffer, reused across fetches.
	batchOut protocol.Writer
}

// serverStmt is a prepared statement with at most one open cursor.
type serverStmt struct {
	stmt   *pascalr.Stmt
	rows   *pascalr.Rows
	cancel context.CancelFunc // cancels the cursor's statement context
	tr     *obs.Trace         // trace of the current execution's cursor
	enc    *fetchEncoder      // fills RowBatch blocks; built on first execution
}

func newSession(srv *Server, id uint64, conn net.Conn) *session {
	ctx, cancel := context.WithCancel(context.Background())
	return &session{
		srv:      srv,
		id:       id,
		conn:     conn,
		br:       bufio.NewReader(conn),
		bw:       bufio.NewWriter(conn),
		ps:       srv.db.NewSession(),
		ctx:      ctx,
		cancelFn: cancel,
		state:    "idle",
		since:    now(),
		stmts:    make(map[uint64]*serverStmt),
	}
}

// kill cancels the session context and closes the connection. The
// running statement (if any) aborts at the next engine checkpoint; the
// serve loop then fails to write its response and exits.
func (s *session) kill() {
	s.mu.Lock()
	s.killed = true
	s.mu.Unlock()
	s.cancelFn()
	s.conn.Close()
}

// drain asks the session to exit after its in-flight request. An idle
// session (blocked reading the next frame) is unblocked by closing the
// connection; a busy one observes the flag when its handler returns.
func (s *session) drain() {
	s.mu.Lock()
	s.draining = true
	idle := !s.busy
	s.mu.Unlock()
	if idle {
		s.conn.Close()
	}
}

func (s *session) entry() processEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return processEntry{
		ID:      s.id,
		Addr:    s.conn.RemoteAddr().String(),
		State:   s.state,
		Query:   s.query,
		AgeMS:   now().Sub(s.since).Milliseconds(),
		TraceID: s.traceID,
	}
}

// currentTraceID returns the session's most recent trace ID.
func (s *session) currentTraceID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.traceID
}

// beginTrace starts the trace of one statement — under the client's
// wire-propagated ID when it sent one, a fresh one otherwise — records
// it as the session's current trace, publishes the ID to the
// correlation Info metric, and returns a context carrying the root
// span for the engine to hang its phase spans from.
func (s *session) beginTrace(ctx context.Context, wireID string) (context.Context, *obs.Trace) {
	tr := obs.NewTrace(wireID)
	s.mu.Lock()
	s.traceID = tr.ID()
	s.lastTrace = tr
	s.mu.Unlock()
	mLastTrace.SetLabels(obs.Attr{Key: "trace_id", Value: tr.ID()})
	return obs.With(ctx, tr.Root()), tr
}

// endTrace finishes a statement trace and emits the slow-query log
// line when the statement ran past the configured threshold: trace ID,
// normalized query, total and per-phase durations, and the execution's
// counter deltas (recorded by the engine as root-span attributes).
func (s *session) endTrace(tr *obs.Trace, query string) {
	tr.Finish()
	slow := s.srv.cfg.SlowQuery
	if slow <= 0 || tr.Duration() < slow {
		return
	}
	attrs := []any{"trace_id", tr.ID(), "query", query, "duration", tr.Duration()}
	phases := tr.Phases()
	names := make([]string, 0, len(phases))
	for name := range phases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		attrs = append(attrs, "phase_"+name, phases[name])
	}
	root := tr.Snapshot().Root
	keys := make([]string, 0, len(root.Attrs))
	for k := range root.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		attrs = append(attrs, k, root.Attrs[k])
	}
	s.srv.logger().Warn("slow query", attrs...)
}

// setState records the process-list state; query may be empty.
func (s *session) setState(state, query string) {
	s.mu.Lock()
	s.state = state
	s.query = query
	s.since = now()
	s.mu.Unlock()
}

// serve runs the session until the connection closes or the server
// drains. It owns both directions of the connection.
func (s *session) serve() {
	defer func() {
		s.cancelFn()
		s.closeStmts()
		s.conn.Close()
		s.srv.unregister(s)
		s.srv.wg.Done()
	}()

	hello := protocol.NewWriter()
	hello.Uvarint(protocol.Version)
	hello.Uvarint(s.id)
	if protocol.WriteFrame(s.bw, protocol.OpHello, hello.Bytes()) != nil {
		return
	}

	for {
		op, payload, err := protocol.ReadFrame(s.br)
		if err != nil {
			return // connection closed (client, kill, or drain)
		}
		s.mu.Lock()
		s.busy = true
		s.mu.Unlock()

		start := now()
		writeErr := s.dispatch(op, payload)
		mFrames.Inc()
		if h, ok := opLatencies[op]; ok {
			h.Observe(now().Sub(start))
		}

		s.mu.Lock()
		s.busy = false
		done := s.draining || s.killed
		s.mu.Unlock()
		s.setState("idle", "")
		if writeErr != nil || done {
			return
		}
	}
}

// closeStmts releases every open cursor and statement context.
func (s *session) closeStmts() {
	s.mu.Lock()
	stmts := s.stmts
	s.stmts = map[uint64]*serverStmt{}
	s.mu.Unlock()
	for _, st := range stmts {
		if st.rows != nil {
			st.rows.Close()
		}
		if st.cancel != nil {
			st.cancel()
		}
	}
}

// dispatch handles one request frame and writes exactly one response
// frame. The returned error is a *write* failure (fatal for the
// connection); request-level failures travel as Err frames.
func (s *session) dispatch(op byte, payload []byte) error {
	r := protocol.NewReader(payload)
	switch op {
	case protocol.OpPing:
		return protocol.WriteFrame(s.bw, protocol.OpPong, nil)

	case protocol.OpExec:
		src, err := r.String()
		if err != nil {
			return s.writeErr(protocol.CodeBadRequest, err)
		}
		s.setState("exec", firstLine(src))
		// Scripts run without engine spans (Exec has no context seam),
		// but still get a trace: the root span times the script, and the
		// ID correlates it across processlist and the slow-query log.
		_, tr := s.beginTrace(s.ctx, "")
		err = s.ps.Exec(src)
		s.endTrace(tr, firstLine(src))
		if err != nil {
			return s.writeErr(protocol.CodeInternal, err)
		}
		return protocol.WriteFrame(s.bw, protocol.OpOK, nil)

	case protocol.OpQuery:
		return s.handleQuery(r)

	case protocol.OpPrepare:
		return s.handlePrepare(r)

	case protocol.OpExecStmt:
		return s.handleExecStmt(r)

	case protocol.OpFetch:
		return s.handleFetch(r)

	case protocol.OpCloseStmt:
		id, err := r.Uvarint()
		if err != nil {
			return s.writeErr(protocol.CodeBadRequest, err)
		}
		s.mu.Lock()
		st, ok := s.stmts[id]
		delete(s.stmts, id)
		s.mu.Unlock()
		if !ok {
			return s.writeErr(protocol.CodeUnknownStmt, fmt.Errorf("no statement %d", id))
		}
		if st.rows != nil {
			st.rows.Close()
		}
		if st.cancel != nil {
			st.cancel()
		}
		return protocol.WriteFrame(s.bw, protocol.OpOK, nil)

	case protocol.OpCancel:
		// Cancel the session's open statement contexts; a cursor mid-fetch
		// observes the cancellation on its next row. The session itself
		// stays usable.
		s.mu.Lock()
		for _, st := range s.stmts {
			if st.cancel != nil {
				st.cancel()
			}
		}
		s.mu.Unlock()
		return protocol.WriteFrame(s.bw, protocol.OpOK, nil)

	case protocol.OpKill:
		id, err := r.Uvarint()
		if err != nil {
			return s.writeErr(protocol.CodeBadRequest, err)
		}
		if err := s.srv.Kill(id); err != nil {
			return s.writeErr(protocol.CodeBadRequest, err)
		}
		return protocol.WriteFrame(s.bw, protocol.OpOK, nil)

	case protocol.OpProcessList:
		entries := s.srv.processList()
		rows := make([][]any, 0, len(entries))
		for _, e := range entries {
			rows = append(rows, []any{int64(e.ID), e.Addr, e.State, e.Query, e.AgeMS, e.TraceID})
		}
		w := protocol.NewWriter()
		w.Strings([]string{"id", "addr", "state", "query", "age_ms", "trace_id"})
		if err := w.Rows(rows); err != nil {
			return s.writeErr(protocol.CodeInternal, err)
		}
		return protocol.WriteFrame(s.bw, protocol.OpResult, w.Bytes())

	case protocol.OpResetStats:
		s.srv.db.ResetStats()
		return protocol.WriteFrame(s.bw, protocol.OpOK, nil)

	case protocol.OpFingerprint:
		w := protocol.NewWriter()
		w.String(s.srv.db.StatsFingerprint())
		return protocol.WriteFrame(s.bw, protocol.OpStr, w.Bytes())

	case protocol.OpSetOption:
		return s.handleSetOption(r)

	case protocol.OpExplainAnalyze:
		return s.handleExplainAnalyze(r)

	case protocol.OpLastTrace:
		s.mu.Lock()
		tr := s.lastTrace
		s.mu.Unlock()
		if tr == nil {
			return s.writeErr(protocol.CodeBadRequest, fmt.Errorf("no statement traced on this session yet"))
		}
		js, err := tr.JSON()
		if err != nil {
			return s.writeErr(protocol.CodeInternal, err)
		}
		w := protocol.NewWriter()
		w.String(string(js))
		return protocol.WriteFrame(s.bw, protocol.OpStr, w.Bytes())

	default:
		return s.writeErr(protocol.CodeBadRequest, fmt.Errorf("unknown opcode %#x", op))
	}
}

// stmtCtx derives a cancelable statement context from the session
// context.
func (s *session) stmtCtx() (context.Context, context.CancelFunc) {
	return context.WithCancel(s.ctx)
}

// optionsFor converts wire options into pascalr per-call options; zero
// fields defer to the session defaults set via OpSetOption.
func optionsFor(o protocol.QueryOpts) []pascalr.Option {
	var opts []pascalr.Option
	if o.HasStrategies {
		opts = append(opts, pascalr.WithStrategies(pascalr.Strategy(o.Strategies)))
	}
	if o.HasCostBased && o.CostBased {
		opts = append(opts, pascalr.WithCostBased())
	}
	if o.MaxRefTuples > 0 {
		opts = append(opts, pascalr.WithMaxRefTuples(int64(o.MaxRefTuples)))
	}
	return opts
}

func (s *session) handleQuery(r *protocol.Reader) error {
	src, err := r.String()
	if err != nil {
		return s.writeErr(protocol.CodeBadRequest, err)
	}
	wopts, err := r.Opts()
	if err != nil {
		return s.writeErr(protocol.CodeBadRequest, err)
	}
	s.setState("query", firstLine(src))
	ctx, cancel := s.stmtCtx()
	defer cancel()
	ctx, tr := s.beginTrace(ctx, wopts.TraceID)
	res, err := s.ps.Query(ctx, src, optionsFor(wopts)...)
	s.endTrace(tr, firstLine(src))
	if err != nil {
		return s.writeErr(s.errCode(err), err)
	}
	w := protocol.NewWriter()
	w.Strings(res.Columns())
	if err := w.Rows(res.Rows()); err != nil {
		return s.writeErr(protocol.CodeInternal, err)
	}
	return protocol.WriteFrame(s.bw, protocol.OpResult, w.Bytes())
}

func (s *session) handlePrepare(r *protocol.Reader) error {
	src, err := r.String()
	if err != nil {
		return s.writeErr(protocol.CodeBadRequest, err)
	}
	wopts, err := r.Opts()
	if err != nil {
		return s.writeErr(protocol.CodeBadRequest, err)
	}
	s.setState("prepare", firstLine(src))
	ctx, tr := s.beginTrace(s.ctx, wopts.TraceID)
	stmt, err := s.ps.PrepareContext(ctx, src, optionsFor(wopts)...)
	s.endTrace(tr, firstLine(src))
	if err != nil {
		return s.writeErr(protocol.CodeInternal, err)
	}
	s.mu.Lock()
	s.nextStmtID++
	id := s.nextStmtID
	s.stmts[id] = &serverStmt{stmt: stmt}
	s.mu.Unlock()
	w := protocol.NewWriter()
	w.Uvarint(id)
	return protocol.WriteFrame(s.bw, protocol.OpStmtBound, w.Bytes())
}

func (s *session) handleExecStmt(r *protocol.Reader) error {
	id, err := r.Uvarint()
	if err != nil {
		return s.writeErr(protocol.CodeBadRequest, err)
	}
	s.mu.Lock()
	st, ok := s.stmts[id]
	s.mu.Unlock()
	if !ok {
		return s.writeErr(protocol.CodeUnknownStmt, fmt.Errorf("no statement %d", id))
	}
	// Re-executing an open statement replaces its cursor.
	if st.rows != nil {
		st.rows.Close()
		st.rows = nil
	}
	if st.cancel != nil {
		st.cancel()
	}
	s.setState("execute", firstLine(st.stmt.Src()))
	ctx, cancel := s.stmtCtx()
	ctx, tr := s.beginTrace(ctx, "")
	rows, err := st.stmt.Rows(ctx)
	// The collection and combination phases ran eagerly inside Rows, so
	// the trace is finished here; fetch batches append spans after the
	// fact, which the recorder permits.
	s.endTrace(tr, firstLine(st.stmt.Src()))
	if err != nil {
		cancel()
		return s.writeErr(s.errCode(err), err)
	}
	if st.enc == nil {
		st.enc = newFetchEncoder(rows)
	}
	s.mu.Lock()
	st.rows, st.cancel, st.tr = rows, cancel, tr
	s.mu.Unlock()
	w := protocol.NewWriter()
	w.Strings(rows.Columns())
	return protocol.WriteFrame(s.bw, protocol.OpCursor, w.Bytes())
}

// fetchBatchLimit caps rows per RowBatch frame regardless of the
// client's ask, keeping frames under MaxFrameSize.
const fetchBatchLimit = 4096

func (s *session) handleFetch(r *protocol.Reader) error {
	id, err := r.Uvarint()
	if err != nil {
		return s.writeErr(protocol.CodeBadRequest, err)
	}
	n, err := r.Uvarint()
	if err != nil {
		return s.writeErr(protocol.CodeBadRequest, err)
	}
	if n == 0 || n > fetchBatchLimit {
		n = fetchBatchLimit
	}
	s.mu.Lock()
	st, ok := s.stmts[id]
	s.mu.Unlock()
	if !ok || st.rows == nil {
		return s.writeErr(protocol.CodeUnknownStmt, fmt.Errorf("no open cursor for statement %d", id))
	}
	s.setState("fetch", firstLine(st.stmt.Src()))
	fsp := st.tr.Root().Start("fetch")
	enc := st.enc
	enc.blk.Reset()
	done := false
	var scanErr error
	for uint64(enc.blk.Rows) < n {
		if !st.rows.Next() {
			done = true
			break
		}
		if scanErr = enc.add(st.rows); scanErr != nil {
			break
		}
	}
	fsp.SetInt("rows", int64(enc.blk.Rows))
	fsp.End()
	if scanErr != nil {
		return s.writeErr(protocol.CodeInternal, scanErr)
	}
	if done {
		err := st.rows.Err()
		st.rows.Close()
		st.rows = nil
		if st.cancel != nil {
			st.cancel()
			st.cancel = nil
		}
		if err != nil {
			return s.writeErr(s.errCode(err), err)
		}
	}
	s.batchOut.Reset()
	s.batchOut.RowBatch(done, &enc.blk)
	return protocol.WriteFrame(s.bw, protocol.OpRowBatch, s.batchOut.Bytes())
}

// fetchEncoder fills a column-major block from a cursor's rows through
// typed Scan destinations, so a fetch boxes no values.
type fetchEncoder struct {
	blk   protocol.Block
	dest  []any // per column: a pointer into ints, strs or bools
	ints  []int64
	strs  []string
	bools []bool
	codes []map[string]uint32 // enumeration columns: label -> code
}

func newFetchEncoder(rows *pascalr.Rows) *fetchEncoder {
	kinds, labels := rows.ColumnKinds()
	n := len(kinds)
	e := &fetchEncoder{
		dest:  make([]any, n),
		ints:  make([]int64, n),
		strs:  make([]string, n),
		bools: make([]bool, n),
		codes: make([]map[string]uint32, n),
	}
	e.blk.Cols = make([]protocol.Column, n)
	for i, k := range kinds {
		c := &e.blk.Cols[i]
		switch k {
		case pascalr.ColumnInt:
			c.Kind, e.dest[i] = protocol.ColInt, &e.ints[i]
		case pascalr.ColumnBool:
			c.Kind, e.dest[i] = protocol.ColBool, &e.bools[i]
		case pascalr.ColumnEnum:
			c.Kind, e.dest[i], c.Labels = protocol.ColEnum, &e.strs[i], labels[i]
			e.codes[i] = make(map[string]uint32, len(labels[i]))
			for code, l := range labels[i] {
				e.codes[i][l] = uint32(code)
			}
		default:
			c.Kind, e.dest[i] = protocol.ColString, &e.strs[i]
		}
	}
	return e
}

// add appends the cursor's current row to the block.
func (e *fetchEncoder) add(rows *pascalr.Rows) error {
	if err := rows.Scan(e.dest...); err != nil {
		return err
	}
	for i := range e.blk.Cols {
		c := &e.blk.Cols[i]
		switch c.Kind {
		case protocol.ColInt:
			c.Ints = append(c.Ints, e.ints[i])
		case protocol.ColBool:
			c.Bools = append(c.Bools, e.bools[i])
		case protocol.ColEnum:
			c.Codes = append(c.Codes, e.codes[i][e.strs[i]])
		default:
			c.Strs = append(c.Strs, e.strs[i])
		}
	}
	e.blk.Rows++
	return nil
}

// handleExplainAnalyze executes a selection once and returns the
// engine's estimated-versus-actual cardinality report — the same text
// in-process callers get from Database.ExplainAnalyze. The execution is
// traced like any query, so TraceLastQuery afterwards returns the span
// tree of exactly this run.
func (s *session) handleExplainAnalyze(r *protocol.Reader) error {
	src, err := r.String()
	if err != nil {
		return s.writeErr(protocol.CodeBadRequest, err)
	}
	wopts, err := r.Opts()
	if err != nil {
		return s.writeErr(protocol.CodeBadRequest, err)
	}
	s.setState("explain", firstLine(src))
	ctx, cancel := s.stmtCtx()
	defer cancel()
	ctx, tr := s.beginTrace(ctx, wopts.TraceID)
	report, err := s.ps.ExplainAnalyze(ctx, src, optionsFor(wopts)...)
	s.endTrace(tr, firstLine(src))
	if err != nil {
		return s.writeErr(s.errCode(err), err)
	}
	w := protocol.NewWriter()
	w.String(report)
	return protocol.WriteFrame(s.bw, protocol.OpStr, w.Bytes())
}

// handleSetOption updates the session defaults. Keys mirror the public
// Option constructors; the value is an int64 (booleans are 0/1).
func (s *session) handleSetOption(r *protocol.Reader) error {
	key, err := r.String()
	if err != nil {
		return s.writeErr(protocol.CodeBadRequest, err)
	}
	v, err := r.Int64()
	if err != nil {
		return s.writeErr(protocol.CodeBadRequest, err)
	}
	var opt pascalr.Option
	switch key {
	case "strategies":
		opt = pascalr.WithStrategies(pascalr.Strategy(v))
	case "cost_based":
		if v == 0 {
			return s.writeErr(protocol.CodeBadRequest, fmt.Errorf("cost_based can only be enabled; open a new session for the static planner"))
		}
		opt = pascalr.WithCostBased()
	case "max_ref_tuples":
		opt = pascalr.WithMaxRefTuples(v)
	default:
		return s.writeErr(protocol.CodeBadRequest, fmt.Errorf("unknown option %q", key))
	}
	s.ps.AddOptions(opt)
	return protocol.WriteFrame(s.bw, protocol.OpOK, nil)
}

// errCode classifies an execution error for the wire.
func (s *session) errCode(err error) uint64 {
	switch {
	case errors.Is(err, pascalr.ErrStaleRead):
		return protocol.CodeStale
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		s.mu.Lock()
		killed := s.killed
		s.mu.Unlock()
		if killed {
			return protocol.CodeKilled
		}
		return protocol.CodeCancelled
	default:
		return protocol.CodeInternal
	}
}

// writeErr sends an Err frame; the connection stays usable.
func (s *session) writeErr(code uint64, err error) error {
	w := protocol.NewWriter()
	w.Uvarint(code)
	w.String(err.Error())
	return protocol.WriteFrame(s.bw, protocol.OpErr, w.Bytes())
}

// firstLine trims a script to its first line for the process list.
func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	if len(s) > 200 {
		return s[:200]
	}
	return s
}
