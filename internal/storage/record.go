package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"pascalr/internal/protocol"
	"pascalr/internal/schema"
	"pascalr/internal/value"
)

// Every persistent record — WAL entries, SSTable data blocks, the
// checkpoint manifest — is framed identically:
//
//	uint32 big-endian payload length
//	uint32 big-endian CRC-32 (IEEE) of the payload
//	bytes  payload
//
// A frame whose length is implausible or whose checksum mismatches is
// corrupt; readers treat it (and, in the WAL, everything after it) as
// garbage. maxRecordSize bounds a single record so a torn length prefix
// cannot allocate gigabytes.
const maxRecordSize = 64 << 20

const frameHeader = 8

// appendFrame appends one framed record to dst.
func appendFrame(dst, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// sealFrame turns buf[start:] — frameHeader reserved bytes followed by
// a payload built in place — into a frame, sparing the payload copy
// appendFrame makes.
func sealFrame(buf []byte, start int) {
	payload := buf[start+frameHeader:]
	binary.BigEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
}

// readFrame decodes the frame starting at data[off], returning its
// payload and the offset just past it. Truncated or corrupt frames
// return an error; payload aliases data.
func readFrame(data []byte, off int) (payload []byte, end int, err error) {
	if off < 0 || len(data)-off < frameHeader {
		return nil, off, fmt.Errorf("storage: truncated frame header")
	}
	n := binary.BigEndian.Uint32(data[off : off+4])
	if n > maxRecordSize {
		return nil, off, fmt.Errorf("storage: implausible record length %d", n)
	}
	want := binary.BigEndian.Uint32(data[off+4 : off+8])
	body := data[off+frameHeader:]
	if uint64(len(body)) < uint64(n) {
		return nil, off, fmt.Errorf("storage: truncated record of %d bytes", n)
	}
	payload = body[:n]
	if crc32.ChecksumIEEE(payload) != want {
		return nil, off, fmt.Errorf("storage: record checksum mismatch")
	}
	return payload, off + frameHeader + int(n), nil
}

// Op identifies a WAL record type. Every effective mutation of a
// durable database — DDL included — appends exactly one record.
type Op byte

// The WAL record types.
const (
	OpDefineType  Op = 1 // named type declaration
	OpCreateRel   Op = 2 // relation declaration (id = creation order)
	OpCreateIndex Op = 3 // permanent index creation
	OpInsert      Op = 4 // one inserted tuple
	OpDelete      Op = 5 // one deletion, by key values
	OpAssign      Op = 6 // whole-relation assignment (tuple list)
)

// Record is one decoded WAL record. Seq is the log sequence number:
// strictly increasing, never reused, and compared against the
// checkpoint's LastSeq during replay so a record surviving a crashed
// truncation is never applied twice.
type Record struct {
	Seq uint64
	Op  Op

	Type   *schema.Type      // OpDefineType
	Schema *schema.RelSchema // OpCreateRel
	Rel    int               // OpCreateIndex, OpInsert, OpDelete, OpAssign
	Col    string            // OpCreateIndex
	Tuple  []value.Value     // OpInsert
	Key    []value.Value     // OpDelete
	Tuples [][]value.Value   // OpAssign

	// Chunk flags, OpAssign only. A whole-relation assignment too large
	// for one WAL record (maxRecordSize would reject its frame) is
	// logged as a chunk group: consecutive records carrying slices of
	// the tuple list. Cont marks a record continuing the previous
	// chunk's list; More marks one with further chunks following. Replay
	// reassembles a group and applies it only when the final chunk
	// (More unset) is durable — a group torn by a crash is wholly
	// dropped, preserving assignment atomicity.
	More bool
	Cont bool
}

// EncodeRecord serializes a record payload (unframed — the WAL frames
// it on append).
func EncodeRecord(rec Record) ([]byte, error) {
	w := protocol.NewWriter()
	w.Uvarint(rec.Seq)
	w.Uvarint(uint64(rec.Op))
	switch rec.Op {
	case OpDefineType:
		if err := encodeType(w, rec.Type); err != nil {
			return nil, err
		}
	case OpCreateRel:
		if err := encodeRelSchema(w, rec.Schema); err != nil {
			return nil, err
		}
	case OpCreateIndex:
		w.Uvarint(uint64(rec.Rel))
		w.String(rec.Col)
	case OpInsert:
		w.Uvarint(uint64(rec.Rel))
		if err := w.Vals(rec.Tuple); err != nil {
			return nil, err
		}
	case OpDelete:
		w.Uvarint(uint64(rec.Rel))
		if err := w.Vals(rec.Key); err != nil {
			return nil, err
		}
	case OpAssign:
		w.Uvarint(uint64(rec.Rel))
		var flags uint64
		if rec.More {
			flags |= 1
		}
		if rec.Cont {
			flags |= 2
		}
		w.Uvarint(flags)
		w.Uvarint(uint64(len(rec.Tuples)))
		for _, t := range rec.Tuples {
			if err := w.Vals(t); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("storage: unknown WAL op %d", rec.Op)
	}
	return w.Bytes(), nil
}

// DecodeRecord parses a WAL record payload. It validates structure but
// not semantics (unknown relation ids etc. surface at apply time).
func DecodeRecord(payload []byte) (Record, error) {
	r := protocol.NewReader(payload)
	var rec Record
	seq, err := r.Uvarint()
	if err != nil {
		return rec, err
	}
	op, err := r.Uvarint()
	if err != nil {
		return rec, err
	}
	rec.Seq, rec.Op = seq, Op(op)
	switch rec.Op {
	case OpDefineType:
		rec.Type, err = decodeType(r)
	case OpCreateRel:
		rec.Schema, err = decodeRelSchema(r)
	case OpCreateIndex:
		var rel uint64
		if rel, err = r.Uvarint(); err == nil {
			rec.Rel = int(rel)
			rec.Col, err = r.String()
		}
	case OpInsert:
		var rel uint64
		if rel, err = r.Uvarint(); err == nil {
			rec.Rel = int(rel)
			rec.Tuple, err = r.Vals()
		}
	case OpDelete:
		var rel uint64
		if rel, err = r.Uvarint(); err == nil {
			rec.Rel = int(rel)
			rec.Key, err = r.Vals()
		}
	case OpAssign:
		var rel, flags, n uint64
		if rel, err = r.Uvarint(); err == nil {
			rec.Rel = int(rel)
			flags, err = r.Uvarint()
		}
		if err == nil {
			if flags > 3 {
				return rec, fmt.Errorf("storage: bad assignment chunk flags %d", flags)
			}
			rec.More, rec.Cont = flags&1 != 0, flags&2 != 0
			if n, err = r.Uvarint(); err == nil {
				if n > uint64(r.Len()) {
					return rec, fmt.Errorf("storage: tuple count %d exceeds record", n)
				}
				rec.Tuples = make([][]value.Value, 0, n)
				for range n {
					var t []value.Value
					if t, err = r.Vals(); err != nil {
						break
					}
					rec.Tuples = append(rec.Tuples, t)
				}
			}
		}
	default:
		return rec, fmt.Errorf("storage: unknown WAL op %d", op)
	}
	if err != nil {
		return rec, err
	}
	if rec.Rel < 0 || rec.Rel > 0xFFFF {
		return rec, fmt.Errorf("storage: relation id %d out of range", rec.Rel)
	}
	return rec, nil
}

// assignChunkBytes bounds one OpAssign chunk's encoded tuple bytes —
// well under maxRecordSize, so a chunk's frame always passes the WAL's
// size check (a single tuple cannot approach the margin: schema bounds
// cap every string component at 1 MiB).
const assignChunkBytes = 8 << 20

// SplitRecord splits a record into WAL-appendable pieces: an OpAssign
// whose tuple list encodes past assignChunkBytes becomes a chunk group
// (first chunk Cont unset, every non-final chunk More set) that replay
// reassembles atomically; every other record passes through unchanged.
// The caller assigns each returned record its own sequence number and
// appends them consecutively under the content write lock, so a group
// is always contiguous in the log.
func SplitRecord(rec Record) []Record {
	return splitRecord(rec, assignChunkBytes)
}

func splitRecord(rec Record, maxBytes int) []Record {
	if rec.Op != OpAssign || len(rec.Tuples) == 0 {
		return []Record{rec}
	}
	// One measuring pass: per-tuple encoded sizes, via the same codec
	// EncodeRecord uses.
	w := protocol.NewWriter()
	sizes := make([]int, len(rec.Tuples))
	prev := 0
	for i, t := range rec.Tuples {
		if err := w.Vals(t); err != nil {
			// Undecodable tuple: return the record unsplit and let
			// EncodeRecord surface the error to the mutator.
			return []Record{rec}
		}
		sizes[i] = len(w.Bytes()) - prev
		prev = len(w.Bytes())
	}
	if prev <= maxBytes {
		return []Record{rec}
	}
	var out []Record
	start, sz := 0, 0
	for i := range rec.Tuples {
		if i > start && sz+sizes[i] > maxBytes {
			out = append(out, Record{
				Op: OpAssign, Rel: rec.Rel,
				Tuples: rec.Tuples[start:i],
				More:   true, Cont: start > 0,
			})
			start, sz = i, 0
		}
		sz += sizes[i]
	}
	out = append(out, Record{
		Op: OpAssign, Rel: rec.Rel,
		Tuples: rec.Tuples[start:],
		Cont:   start > 0,
	})
	return out
}

// Type and relation-schema encodings for DDL records and the manifest.
// Types are embedded structurally (name included), so a checkpoint or
// WAL is self-contained: replay reconstructs the catalog without any
// external schema source.

func encodeType(w *protocol.Writer, t *schema.Type) error {
	if t == nil {
		return fmt.Errorf("storage: nil type")
	}
	w.Uvarint(uint64(t.Kind))
	w.String(t.Name)
	switch t.Kind {
	case schema.TInt:
		w.Int64(t.Lo)
		w.Int64(t.Hi)
	case schema.TString:
		w.Uvarint(uint64(t.MaxLen))
	case schema.TBool:
	case schema.TEnum:
		w.Strings(t.Labels)
	case schema.TRef:
		w.String(t.RefRel)
	default:
		return fmt.Errorf("storage: unknown type kind %d", t.Kind)
	}
	return nil
}

func decodeType(r *protocol.Reader) (*schema.Type, error) {
	kind, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	name, err := r.String()
	if err != nil {
		return nil, err
	}
	switch schema.TypeKind(kind) {
	case schema.TInt:
		lo, err1 := r.Int64()
		hi, err2 := r.Int64()
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("storage: truncated int type")
		}
		return schema.IntType(name, lo, hi), nil
	case schema.TString:
		n, err := r.Uvarint()
		if err != nil || n > 1<<20 {
			return nil, fmt.Errorf("storage: bad string type length")
		}
		return schema.StringType(name, int(n)), nil
	case schema.TBool:
		return schema.BoolType(), nil
	case schema.TEnum:
		labels, err := r.Strings()
		if err != nil {
			return nil, err
		}
		return schema.EnumType(name, labels...)
	case schema.TRef:
		rel, err := r.String()
		if err != nil {
			return nil, err
		}
		return schema.RefType(rel), nil
	default:
		return nil, fmt.Errorf("storage: unknown type kind %d", kind)
	}
}

func encodeRelSchema(w *protocol.Writer, s *schema.RelSchema) error {
	if s == nil {
		return fmt.Errorf("storage: nil schema")
	}
	w.String(s.Name)
	w.Uvarint(uint64(len(s.Cols)))
	for _, c := range s.Cols {
		w.String(c.Name)
		if err := encodeType(w, c.Type); err != nil {
			return err
		}
	}
	w.Strings(s.Key)
	return nil
}

func decodeRelSchema(r *protocol.Reader) (*schema.RelSchema, error) {
	name, err := r.String()
	if err != nil {
		return nil, err
	}
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Len()) {
		return nil, fmt.Errorf("storage: column count %d exceeds record", n)
	}
	cols := make([]schema.Column, 0, n)
	for range n {
		cname, err := r.String()
		if err != nil {
			return nil, err
		}
		ct, err := decodeType(r)
		if err != nil {
			return nil, err
		}
		cols = append(cols, schema.Column{Name: cname, Type: ct})
	}
	key, err := r.Strings()
	if err != nil {
		return nil, err
	}
	return schema.NewRelSchema(name, cols, key)
}
