// Package protocol defines the wire protocol of the pascald network
// server: length-prefixed binary frames carrying a one-byte opcode and
// a varint-encoded payload. Both the server (internal/server) and the
// Go client (client) speak exactly this package, so the framing and the
// value encoding live in one place.
//
// # Framing
//
// Every message is one frame:
//
//	uint32 big-endian length  (= 1 + len(payload))
//	byte   opcode
//	bytes  payload
//
// Integers inside payloads are unsigned varints (uvarint) or zigzag
// varints (int64); strings and byte slices are length-prefixed with a
// uvarint. A frame larger than MaxFrameSize is a protocol error — the
// peer must close the connection.
//
// # Row blocks
//
// Query results travel column-major (protocol version 2). A RowBatch
// frame carries a done byte (0 or 1) and one block. A Result frame
// carries the column names and then blocks to the end of the payload,
// one per run of rows with the same shape (Writer.Rows), so a query
// result is one block. A block is
//
//	uvarint rows
//	uvarint columns
//	per column: kind byte, then the column's vector
//
// and the vectors, by kind, are
//
//	ColInt     a zigzag varint per row
//	ColString  a uvarint length per row, then all rows' bytes in one run
//	ColBool    one byte per row, 0 or 1
//	ColEnum    uvarint label count, the labels as a string vector (as
//	           ColString), then a uvarint label code per row
//
// No value carries a tag of its own. Decoders accept only this
// canonical form (minimal varints, no rows without columns), so every
// accepted block re-encodes to the same bytes. A peer announcing a
// version other than Version in its Hello is refused.
//
// # Conversation
//
// The server sends a Hello frame (protocol version + session id) on
// accept, or an Err frame with CodeTooManySessions when the session
// limit is reached. After that the client drives a strict
// request/response alternation; the only multi-frame response is a
// query result (Result) and the fetch stream of a cursor (RowBatch
// frames, each self-contained). Cancellation of a *running* statement
// happens from another connection via Kill; Cancel on the own
// connection aborts the statement context between requests, which a
// subsequent Fetch observes.
package protocol

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"pascalr/internal/value"
)

// Version is the protocol version announced in the Hello frame. Version
// 2 carried result rows as column-major blocks (rowblock.go); version 3
// keeps them and drops the worker-count field from the QueryOpts block.
// A peer announcing any other version is refused.
const Version = 3

// MaxFrameSize bounds a single frame (length header value). It is large
// enough for any realistic row batch and small enough to keep a
// malformed length prefix from allocating gigabytes.
const MaxFrameSize = 64 << 20

// Request opcodes (client -> server).
const (
	OpPing        byte = 0x01 // ()                      -> Pong
	OpExec        byte = 0x02 // (script)                -> OK
	OpQuery       byte = 0x03 // (src, QueryOpts)        -> Result
	OpPrepare     byte = 0x04 // (src, QueryOpts)        -> StmtBound
	OpExecStmt    byte = 0x05 // (stmtID)                -> Cursor
	OpFetch       byte = 0x06 // (stmtID, maxRows)       -> RowBatch
	OpCloseStmt   byte = 0x07 // (stmtID)                -> OK
	OpCancel      byte = 0x08 // ()                      -> OK
	OpKill        byte = 0x09 // (sessionID)             -> OK
	OpProcessList byte = 0x0A // ()                      -> Result
	OpResetStats  byte = 0x0B // ()                      -> OK
	OpFingerprint byte = 0x0C // ()                      -> Str
	OpSetOption   byte = 0x0D // (key, int64)            -> OK

	OpExplainAnalyze byte = 0x0E // (src, QueryOpts)     -> Str
	OpLastTrace      byte = 0x0F // ()                   -> Str (trace JSON)
)

// Response opcodes (server -> client).
const (
	OpOK        byte = 0x80 // ()
	OpErr       byte = 0x81 // (code, message)
	OpHello     byte = 0x82 // (version, sessionID)
	OpPong      byte = 0x83 // ()
	OpResult    byte = 0x84 // (cols, block)
	OpStmtBound byte = 0x85 // (stmtID)
	OpCursor    byte = 0x86 // (cols)
	OpRowBatch  byte = 0x87 // (done, block)
	OpStr       byte = 0x88 // (string)
)

// Error codes carried by Err frames. The client maps them back to
// typed errors so retry and shutdown logic does not parse messages.
const (
	CodeInternal        uint64 = 1 // unclassified server-side error
	CodeStale           uint64 = 2 // retryable stale read (pascalr.ErrStaleRead)
	CodeCancelled       uint64 = 3 // statement context cancelled (own Cancel)
	CodeKilled          uint64 = 4 // session killed via KILL
	CodeTooManySessions uint64 = 5 // admission control rejected the connection
	CodeUnknownStmt     uint64 = 6 // stmt/cursor id not found in this session
	CodeShuttingDown    uint64 = 7 // server is draining
	CodeBadRequest      uint64 = 8 // malformed frame or unknown opcode
)

// QueryOpts carries per-call execution options. Zero values mean
// "session default": Strategies/CostBased are tri-state through their
// Has flags, MaxRefTuples 0 defers to the session.
// TraceID, when non-empty, names the trace the server records the
// statement's spans under; an empty TraceID lets the server assign one.
type QueryOpts struct {
	HasStrategies bool
	Strategies    uint8
	HasCostBased  bool
	CostBased     bool
	MaxRefTuples  uint64
	TraceID       string
}

const (
	optFlagStrategies = 1 << 0
	optFlagCostBased  = 1 << 1
	optFlagCostValue  = 1 << 2
	optFlagTraceID    = 1 << 3
)

// WriteFrame writes one frame (opcode + payload) to w.
func WriteFrame(w *bufio.Writer, op byte, payload []byte) error {
	if 1+len(payload) > MaxFrameSize {
		return fmt.Errorf("protocol: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(1+len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if err := w.WriteByte(op); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return w.Flush()
}

// ReadFrame reads one frame from r, returning the opcode and payload.
func ReadFrame(r *bufio.Reader) (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 1 || n > MaxFrameSize {
		return 0, nil, fmt.Errorf("protocol: bad frame length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	return buf[0], buf[1:], nil
}

// Writer accumulates a payload.
type Writer struct{ buf []byte }

// NewWriter returns an empty payload writer.
func NewWriter() *Writer { return &Writer{} }

// Reset empties the payload, keeping its capacity for reuse.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Bytes returns the accumulated payload.
func (w *Writer) Bytes() []byte { return w.buf }

// Uvarint appends an unsigned varint.
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Int64 appends a zigzag-encoded signed integer.
func (w *Writer) Int64(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Bool appends a boolean byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Typed-value tags used by Val/ReadVal: the storage layer's WAL and
// checkpoint records carry full value.Value payloads (including enums
// and references), not just the native result conversions.
const (
	tagValInt    = 0
	tagValString = 1
	tagValBool   = 2
	tagValEnum   = 3
	tagValRef    = 4
)

// Val appends one typed value.Value — the codec the durable storage
// layer's WAL and checkpoint records are built from.
func (w *Writer) Val(v value.Value) error {
	switch v.Kind() {
	case value.KindInt:
		w.buf = append(w.buf, tagValInt)
		w.Int64(v.AsInt())
	case value.KindString:
		w.buf = append(w.buf, tagValString)
		w.String(v.AsString())
	case value.KindBool:
		w.buf = append(w.buf, tagValBool)
		w.Bool(v.AsBool())
	case value.KindEnum:
		w.buf = append(w.buf, tagValEnum)
		w.String(v.EnumType())
		w.Int64(int64(v.EnumOrd()))
	case value.KindRef:
		rel, slot, gen := v.AsRef()
		w.buf = append(w.buf, tagValRef)
		w.Uvarint(uint64(rel))
		w.Uvarint(uint64(slot))
		w.Uvarint(uint64(gen))
	default:
		return fmt.Errorf("protocol: cannot encode %s value", v.Kind())
	}
	return nil
}

// Vals appends a length-prefixed tuple of typed values.
func (w *Writer) Vals(tuple []value.Value) error {
	w.Uvarint(uint64(len(tuple)))
	for _, v := range tuple {
		if err := w.Val(v); err != nil {
			return err
		}
	}
	return nil
}

// Val reads one typed value.Value.
func (r *Reader) Val() (value.Value, error) {
	tag, err := r.Byte()
	if err != nil {
		return value.Value{}, err
	}
	switch tag {
	case tagValInt:
		n, err := r.Int64()
		return value.Int(n), err
	case tagValString:
		s, err := r.String()
		return value.String_(s), err
	case tagValBool:
		b, err := r.Bool()
		return value.Bool(b), err
	case tagValEnum:
		name, err := r.String()
		if err != nil {
			return value.Value{}, err
		}
		ord, err := r.Int64()
		if err != nil {
			return value.Value{}, err
		}
		if ord < 0 || ord > 1<<20 {
			return value.Value{}, fmt.Errorf("protocol: enum ordinal %d out of range", ord)
		}
		return value.Enum(name, int(ord)), nil
	case tagValRef:
		rel, err1 := r.Uvarint()
		slot, err2 := r.Uvarint()
		gen, err3 := r.Uvarint()
		if err1 != nil || err2 != nil || err3 != nil {
			return value.Value{}, fmt.Errorf("protocol: truncated ref value")
		}
		if rel > 0xFFFF || slot > 0x7FFFFFFF || gen > 0xFFFF {
			return value.Value{}, fmt.Errorf("protocol: ref value out of range")
		}
		return value.Ref(int(rel), int(slot), int(gen)), nil
	default:
		return value.Value{}, fmt.Errorf("protocol: unknown typed-value tag %d", tag)
	}
}

// Vals reads a length-prefixed tuple of typed values.
func (r *Reader) Vals() ([]value.Value, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Len()) { // every value costs at least one byte
		return nil, fmt.Errorf("protocol: value count %d exceeds payload", n)
	}
	tuple := make([]value.Value, 0, n)
	for range n {
		v, err := r.Val()
		if err != nil {
			return nil, err
		}
		tuple = append(tuple, v)
	}
	return tuple, nil
}

// Opts appends a QueryOpts block.
func (w *Writer) Opts(o QueryOpts) {
	flags := byte(0)
	if o.HasStrategies {
		flags |= optFlagStrategies
	}
	if o.HasCostBased {
		flags |= optFlagCostBased
		if o.CostBased {
			flags |= optFlagCostValue
		}
	}
	if o.TraceID != "" {
		flags |= optFlagTraceID
	}
	w.buf = append(w.buf, flags)
	if o.HasStrategies {
		w.buf = append(w.buf, o.Strategies)
	}
	w.Uvarint(o.MaxRefTuples)
	// The trace ID travels last so a peer speaking the pre-trace layout
	// (which never sets the flag) interoperates unchanged: the Opts block
	// is payload-final in every frame that carries it.
	if o.TraceID != "" {
		w.String(o.TraceID)
	}
}

// Strings appends a length-prefixed string list.
func (w *Writer) Strings(ss []string) {
	w.Uvarint(uint64(len(ss)))
	for _, s := range ss {
		w.String(s)
	}
}

// Reader decodes a payload.
type Reader struct {
	buf []byte
	i   int
}

// NewReader wraps a payload for decoding.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.i }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.i:])
	if n <= 0 {
		return 0, fmt.Errorf("protocol: truncated uvarint")
	}
	r.i += n
	return v, nil
}

// Int64 reads a zigzag-encoded signed integer.
func (r *Reader) Int64() (int64, error) {
	v, n := binary.Varint(r.buf[r.i:])
	if n <= 0 {
		return 0, fmt.Errorf("protocol: truncated varint")
	}
	r.i += n
	return v, nil
}

// Bool reads a boolean byte.
func (r *Reader) Bool() (bool, error) {
	b, err := r.Byte()
	return b != 0, err
}

// Byte reads one byte.
func (r *Reader) Byte() (byte, error) {
	if r.i >= len(r.buf) {
		return 0, fmt.Errorf("protocol: truncated byte")
	}
	b := r.buf[r.i]
	r.i++
	return b, nil
}

// String reads a length-prefixed string.
func (r *Reader) String() (string, error) {
	n, err := r.Uvarint()
	if err != nil {
		return "", err
	}
	if uint64(r.Len()) < n {
		return "", fmt.Errorf("protocol: truncated string of %d bytes", n)
	}
	s := string(r.buf[r.i : r.i+int(n)])
	r.i += int(n)
	return s, nil
}

// Opts reads a QueryOpts block.
func (r *Reader) Opts() (QueryOpts, error) {
	var o QueryOpts
	flags, err := r.Byte()
	if err != nil {
		return o, err
	}
	if flags&optFlagStrategies != 0 {
		o.HasStrategies = true
		if o.Strategies, err = r.Byte(); err != nil {
			return o, err
		}
	}
	if flags&optFlagCostBased != 0 {
		o.HasCostBased = true
		o.CostBased = flags&optFlagCostValue != 0
	}
	if o.MaxRefTuples, err = r.Uvarint(); err != nil {
		return o, err
	}
	if flags&optFlagTraceID != 0 {
		if o.TraceID, err = r.String(); err != nil {
			return o, err
		}
	}
	return o, nil
}

// Strings reads a length-prefixed string list.
func (r *Reader) Strings() ([]string, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Len()) {
		return nil, fmt.Errorf("protocol: string count %d exceeds frame", n)
	}
	out := make([]string, 0, n)
	for range n {
		s, err := r.String()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
