// Package client is the Go client for the pascald network server. It
// speaks the length-prefixed binary protocol of internal/protocol over
// a single TCP connection:
//
//	conn, err := client.Dial(addr)
//	if err != nil { ... }
//	defer conn.Close()
//	res, err := conn.Query("[each e in employees: e.status = active]", client.Options{})
//
// A Conn serializes its requests (the protocol is a strict
// request/response alternation), so share one Conn across goroutines
// only behind the embedded mutex it already holds, or open one Conn
// per worker — connections are cheap and the server admits up to its
// configured session limit.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"

	"pascalr/internal/protocol"
)

// Typed errors mapped back from server error codes, so callers can
// errors.Is instead of parsing messages.
var (
	// ErrStaleRead mirrors pascalr.ErrStaleRead: a concurrent writer
	// invalidated a streaming cursor; re-executing the statement is safe.
	ErrStaleRead = errors.New("client: stale read, retry the statement")
	// ErrCancelled reports a statement aborted by Cancel.
	ErrCancelled = errors.New("client: statement cancelled")
	// ErrKilled reports a session terminated by KILL.
	ErrKilled = errors.New("client: session killed")
	// ErrTooManySessions reports admission-control rejection.
	ErrTooManySessions = errors.New("client: server session limit reached")
	// ErrShuttingDown reports a server refusing new work while draining.
	ErrShuttingDown = errors.New("client: server shutting down")
)

// Error is a server-reported failure: a protocol error code plus the
// server's message. It unwraps to the matching typed error above.
type Error struct {
	Code    uint64
	Message string
}

func (e *Error) Error() string { return "pascald: " + e.Message }

// Unwrap maps the code to the package-level typed errors.
func (e *Error) Unwrap() error {
	switch e.Code {
	case protocol.CodeStale:
		return ErrStaleRead
	case protocol.CodeCancelled:
		return ErrCancelled
	case protocol.CodeKilled:
		return ErrKilled
	case protocol.CodeTooManySessions:
		return ErrTooManySessions
	case protocol.CodeShuttingDown:
		return ErrShuttingDown
	default:
		return nil
	}
}

// Options carries per-call execution options; the zero value defers
// everything to the session defaults.
type Options struct {
	// Strategies, when HasStrategies, fixes the optimization strategy
	// bitset (the pascalr.Strategy flags).
	HasStrategies bool
	Strategies    uint8
	// CostBased, when HasCostBased, selects the cost-based planner.
	HasCostBased bool
	CostBased    bool
	// MaxRefTuples > 0 bounds the reference-tuple working set.
	MaxRefTuples int64
	// TraceID, when non-empty, names the server-side trace of this call,
	// so the caller can correlate it across the server's process list,
	// slow-query log, and metrics without asking the server for the
	// generated ID. Empty lets the server assign one (readable afterwards
	// via TraceLastQuery).
	TraceID string
}

func (o Options) wire() protocol.QueryOpts {
	return protocol.QueryOpts{
		HasStrategies: o.HasStrategies,
		Strategies:    o.Strategies,
		HasCostBased:  o.HasCostBased,
		CostBased:     o.CostBased,
		MaxRefTuples:  uint64(o.MaxRefTuples),
		TraceID:       o.TraceID,
	}
}

// Conn is one client session.
type Conn struct {
	mu        sync.Mutex
	conn      net.Conn
	br        *bufio.Reader
	bw        *bufio.Writer
	sessionID uint64
	closed    bool
}

// Dial connects to a pascald server and performs the Hello handshake.
// An admission-control rejection surfaces as ErrTooManySessions.
func Dial(addr string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Conn{conn: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
	op, payload, err := protocol.ReadFrame(c.br)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	r := protocol.NewReader(payload)
	switch op {
	case protocol.OpHello:
		ver, err := r.Uvarint()
		if err != nil {
			nc.Close()
			return nil, err
		}
		if ver != protocol.Version {
			nc.Close()
			return nil, fmt.Errorf("client: server speaks protocol version %d, this client speaks version %d", ver, protocol.Version)
		}
		if c.sessionID, err = r.Uvarint(); err != nil {
			nc.Close()
			return nil, err
		}
		return c, nil
	case protocol.OpErr:
		nc.Close()
		return nil, readErrPayload(r)
	default:
		nc.Close()
		return nil, fmt.Errorf("client: unexpected handshake opcode %#x", op)
	}
}

func readErrPayload(r *protocol.Reader) error {
	code, err := r.Uvarint()
	if err != nil {
		return err
	}
	msg, err := r.String()
	if err != nil {
		return err
	}
	return &Error{Code: code, Message: msg}
}

// SessionID returns the server-assigned session id (the KILL target).
func (c *Conn) SessionID() uint64 { return c.sessionID }

// Close closes the connection. Open statements on the server are
// released when the server notices the disconnect.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.conn.Close()
}

// roundTrip sends one request frame and reads one response frame under
// the connection lock.
func (c *Conn) roundTrip(op byte, payload []byte) (byte, *protocol.Reader, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.roundTripLocked(op, payload)
}

func (c *Conn) roundTripLocked(op byte, payload []byte) (byte, *protocol.Reader, error) {
	if c.closed {
		return 0, nil, errors.New("client: connection closed")
	}
	if err := protocol.WriteFrame(c.bw, op, payload); err != nil {
		return 0, nil, err
	}
	rop, rp, err := protocol.ReadFrame(c.br)
	if err != nil {
		return 0, nil, err
	}
	r := protocol.NewReader(rp)
	if rop == protocol.OpErr {
		return 0, nil, readErrPayload(r)
	}
	return rop, r, nil
}

func (c *Conn) expect(op byte, payload []byte, want byte) (*protocol.Reader, error) {
	rop, r, err := c.roundTrip(op, payload)
	if err != nil {
		return nil, err
	}
	if rop != want {
		return nil, fmt.Errorf("client: unexpected response opcode %#x, want %#x", rop, want)
	}
	return r, nil
}

// Ping round-trips an empty frame.
func (c *Conn) Ping() error {
	_, err := c.expect(protocol.OpPing, nil, protocol.OpPong)
	return err
}

// Exec runs a PASCAL/R script (DDL and mutations) on the server.
func (c *Conn) Exec(src string) error {
	w := protocol.NewWriter()
	w.String(src)
	_, err := c.expect(protocol.OpExec, w.Bytes(), protocol.OpOK)
	return err
}

// Result is a materialized query result.
type Result struct {
	Columns []string
	Rows    [][]any
}

func readResult(r *protocol.Reader) (*Result, error) {
	cols, err := r.Strings()
	if err != nil {
		return nil, err
	}
	rows, err := r.Rows()
	if err != nil {
		return nil, err
	}
	return &Result{Columns: cols, Rows: rows}, nil
}

// Query evaluates a selection and returns the materialized result.
func (c *Conn) Query(src string, opts Options) (*Result, error) {
	w := protocol.NewWriter()
	w.String(src)
	w.Opts(opts.wire())
	r, err := c.expect(protocol.OpQuery, w.Bytes(), protocol.OpResult)
	if err != nil {
		return nil, err
	}
	return readResult(r)
}

// Stmt is a server-side prepared statement.
type Stmt struct {
	conn *Conn
	id   uint64
}

// Prepare compiles a selection on the server for repeated execution.
func (c *Conn) Prepare(src string, opts Options) (*Stmt, error) {
	w := protocol.NewWriter()
	w.String(src)
	w.Opts(opts.wire())
	r, err := c.expect(protocol.OpPrepare, w.Bytes(), protocol.OpStmtBound)
	if err != nil {
		return nil, err
	}
	id, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	return &Stmt{conn: c, id: id}, nil
}

// Execute re-executes the prepared statement, opening a server-side
// cursor drained through Rows.
func (s *Stmt) Execute() (*Rows, error) {
	w := protocol.NewWriter()
	w.Uvarint(s.id)
	r, err := s.conn.expect(protocol.OpExecStmt, w.Bytes(), protocol.OpCursor)
	if err != nil {
		return nil, err
	}
	cols, err := r.Strings()
	if err != nil {
		return nil, err
	}
	return &Rows{stmt: s, cols: cols}, nil
}

// Close releases the server-side statement and any open cursor.
func (s *Stmt) Close() error {
	w := protocol.NewWriter()
	w.Uvarint(s.id)
	_, err := s.conn.expect(protocol.OpCloseStmt, w.Bytes(), protocol.OpOK)
	return err
}

// Rows streams a cursor in fetch batches, in the database/sql idiom:
// Next, then Scan or Values, then Err after Next returns false. Each
// batch arrives as one column-major block and stays in typed column
// vectors until a row is read.
type Rows struct {
	stmt *Stmt
	cols []string
	blk  protocol.Block
	i    int // rows of blk consumed; the current row is i-1
	done bool
	err  error

	// slab is what is left of the values the rows of the current block
	// are cut from, one slab per fetched block; labels holds each
	// enumeration column's labels, boxed at first use, and the label
	// table they were boxed from.
	slab   []any
	labels []boxedLabels

	// FetchSize overrides the per-Fetch row ask (default 256).
	FetchSize int
}

// Columns returns the component names of the result.
func (r *Rows) Columns() []string { return append([]string(nil), r.cols...) }

// Next advances to the next row, fetching the next batch from the
// server when the buffered one is drained.
func (r *Rows) Next() bool {
	if r.err != nil {
		return false
	}
	if r.i < r.blk.Rows {
		r.i++
		return true
	}
	r.i = r.blk.Rows + 1 // no current row unless the fetch yields one
	if r.done {
		return false
	}
	n := r.FetchSize
	if n <= 0 {
		n = 256
	}
	w := protocol.NewWriter()
	w.Uvarint(r.stmt.id)
	w.Uvarint(uint64(n))
	rd, err := r.stmt.conn.expect(protocol.OpFetch, w.Bytes(), protocol.OpRowBatch)
	if err != nil {
		r.err = err
		r.done = true
		return false
	}
	done, err := rd.RowBatch(&r.blk)
	if err == nil && len(r.blk.Cols) != len(r.cols) {
		err = fmt.Errorf("client: row batch has %d columns, the cursor %d", len(r.blk.Cols), len(r.cols))
	}
	if err != nil {
		r.blk.Rows = 0
		r.err = err
		return false
	}
	r.done = done
	r.i = 1
	for j := range r.labels {
		if !slices.Equal(r.labels[j].from, r.blk.Cols[j].Labels) {
			r.labels[j] = boxedLabels{} // another label table: box anew
		}
	}
	return r.blk.Rows > 0
}

// row returns the index of the current row in the buffered block, or
// -1 when there is none.
func (r *Rows) row() int {
	if r.i == 0 || r.i > r.blk.Rows {
		return -1
	}
	return r.i - 1
}

// Values returns the current row as native values (int64, string,
// bool; enumeration labels as strings) in a fresh slice the caller may
// keep and append to, or nil when there is no current row.
//
// The slices of one fetched block's rows are cut from one allocation
// sized to the block, and each enumeration label is boxed once. So a
// kept row keeps its whole block's slices alive; a caller that keeps a
// few rows of a long result should keep copies (slices.Clone).
func (r *Rows) Values() []any {
	k := r.row()
	if k < 0 {
		return nil
	}
	w := len(r.blk.Cols)
	if w == 0 {
		return []any{}
	}
	if len(r.slab) < w {
		r.slab = make([]any, (r.blk.Rows-k)*w)
	}
	out := r.slab[:w:w]
	r.slab = r.slab[w:]
	for j := range out {
		if c := &r.blk.Cols[j]; c.Kind == protocol.ColEnum {
			out[j] = r.label(j, c)
		} else {
			out[j] = r.blk.Value(k, j)
		}
	}
	return out
}

// boxedLabels is an enumeration column's label table, boxed.
type boxedLabels struct {
	from  []string
	boxed []any
}

// label returns enumeration column j's current label, boxed once per
// label table.
func (r *Rows) label(j int, c *protocol.Column) any {
	if r.labels == nil {
		r.labels = make([]boxedLabels, len(r.blk.Cols))
	}
	bl := &r.labels[j]
	if bl.boxed == nil {
		*bl = boxedLabels{from: slices.Clone(c.Labels), boxed: make([]any, len(c.Labels))}
	}
	code := c.Codes[r.i-1]
	if bl.boxed[code] == nil {
		bl.boxed[code] = c.Labels[code]
	}
	return bl.boxed[code]
}

// Scan copies the current row into the destinations: *int64 or *int
// for integer columns, *string for string and enumeration columns,
// *bool for booleans, and *any for the native value.
func (r *Rows) Scan(dest ...any) error {
	k := r.row()
	if k < 0 {
		return errors.New("client: Scan called without a successful Next")
	}
	if len(dest) != len(r.blk.Cols) {
		return fmt.Errorf("client: Scan expects %d destinations, got %d", len(r.blk.Cols), len(dest))
	}
	for j, d := range dest {
		c := &r.blk.Cols[j]
		ok := true
		switch d := d.(type) {
		case *any:
			*d = r.blk.Value(k, j)
		case *int64:
			if ok = c.Kind == protocol.ColInt; ok {
				*d = c.Ints[k]
			}
		case *int:
			if ok = c.Kind == protocol.ColInt; ok {
				*d = int(c.Ints[k])
			}
		case *string:
			switch c.Kind {
			case protocol.ColString:
				*d = c.Strs[k]
			case protocol.ColEnum:
				*d = c.Labels[c.Codes[k]]
			default:
				ok = false
			}
		case *bool:
			if ok = c.Kind == protocol.ColBool; ok {
				*d = c.Bools[k]
			}
		default:
			return fmt.Errorf("client: column %s: unsupported Scan destination type %T", r.cols[j], d)
		}
		if !ok {
			return fmt.Errorf("client: column %s: cannot scan %s into %T", r.cols[j], kindNames[c.Kind], d)
		}
	}
	return nil
}

// kindNames names the column kinds in Scan errors.
var kindNames = map[byte]string{
	protocol.ColInt:    "an integer",
	protocol.ColString: "a string",
	protocol.ColBool:   "a boolean",
	protocol.ColEnum:   "an enumeration label",
}

// Err returns the error that ended iteration, if any. A concurrent
// writer invalidating the stream surfaces as ErrStaleRead; a Cancel as
// ErrCancelled.
func (r *Rows) Err() error { return r.err }

// Close stops iteration client-side. The server cursor is released on
// Stmt.Close or when the statement is re-executed.
func (r *Rows) Close() error {
	r.done = true
	r.blk = protocol.Block{}
	r.i = 0
	return nil
}

// Cancel aborts the session's open statement contexts on the server: a
// cursor mid-fetch observes the cancellation on its next batch.
func (c *Conn) Cancel() error {
	_, err := c.expect(protocol.OpCancel, nil, protocol.OpOK)
	return err
}

// Kill terminates another session by id (see ProcessList). The
// victim's running statement aborts at the engine's next cancellation
// checkpoint and its connection closes.
func (c *Conn) Kill(sessionID uint64) error {
	w := protocol.NewWriter()
	w.Uvarint(sessionID)
	_, err := c.expect(protocol.OpKill, w.Bytes(), protocol.OpOK)
	return err
}

// ProcessList returns the live sessions as a result with columns
// id, addr, state, query, age_ms.
func (c *Conn) ProcessList() (*Result, error) {
	r, err := c.expect(protocol.OpProcessList, nil, protocol.OpResult)
	if err != nil {
		return nil, err
	}
	return readResult(r)
}

// ResetStats zeroes the server's evaluation counters.
func (c *Conn) ResetStats() error {
	_, err := c.expect(protocol.OpResetStats, nil, protocol.OpOK)
	return err
}

// StatsFingerprint returns the server's deterministic counter
// fingerprint (see pascalr.Database.StatsFingerprint).
func (c *Conn) StatsFingerprint() (string, error) {
	r, err := c.expect(protocol.OpFingerprint, nil, protocol.OpStr)
	if err != nil {
		return "", err
	}
	return r.String()
}

// ExplainAnalyze executes a selection on the server and returns the
// engine's estimated-versus-actual cardinality report — the same text
// in-process callers get from pascalr.Database.ExplainAnalyze. The
// execution is traced; TraceLastQuery afterwards returns its span tree.
func (c *Conn) ExplainAnalyze(src string, opts Options) (string, error) {
	w := protocol.NewWriter()
	w.String(src)
	w.Opts(opts.wire())
	r, err := c.expect(protocol.OpExplainAnalyze, w.Bytes(), protocol.OpStr)
	if err != nil {
		return "", err
	}
	return r.String()
}

// TraceLastQuery returns the span tree of the session's most recently
// traced statement as JSON: the trace ID, start time, and the nested
// spans with their durations and attributes (estimated and actual
// cardinalities on scan and join spans).
func (c *Conn) TraceLastQuery() (string, error) {
	r, err := c.expect(protocol.OpLastTrace, nil, protocol.OpStr)
	if err != nil {
		return "", err
	}
	return r.String()
}

// SetOption sets a session default on the server. Keys: "strategies",
// "cost_based" (1 to enable), "max_ref_tuples"; the server refuses any
// other key with a bad-request error.
func (c *Conn) SetOption(key string, value int64) error {
	w := protocol.NewWriter()
	w.String(key)
	w.Int64(value)
	_, err := c.expect(protocol.OpSetOption, w.Bytes(), protocol.OpOK)
	return err
}
