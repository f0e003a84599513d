package protocol

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Column kinds of a row block: the byte that precedes each column's
// vector.
const (
	ColInt    byte = 1 // a zigzag varint per row
	ColString byte = 2 // a uvarint length per row, then every row's bytes in one run
	ColBool   byte = 3 // one byte per row, 0 or 1
	ColEnum   byte = 4 // a label table (a string vector), then a uvarint label code per row
)

// Column is one typed column vector of a Block. Only the vectors of its
// Kind are used: Ints, Strs, Bools, or Labels and Codes.
type Column struct {
	Kind   byte
	Ints   []int64
	Strs   []string
	Bools  []bool
	Labels []string // ColEnum: the label table
	Codes  []uint32 // ColEnum: an index into Labels per row
}

// Block is a row block in column-major form: Rows rows, each with one
// value in every column's vector.
type Block struct {
	Rows int
	Cols []Column
}

// Reset empties every column vector, keeping each column's kind, label
// table and capacity, so an encoder refills the block without
// allocating.
func (b *Block) Reset() {
	b.Rows = 0
	for i := range b.Cols {
		c := &b.Cols[i]
		c.Ints, c.Strs, c.Bools, c.Codes = c.Ints[:0], c.Strs[:0], c.Bools[:0], c.Codes[:0]
	}
}

// Value returns the native value of one cell: int64, string (enum
// labels included) or bool.
func (b *Block) Value(row, col int) any {
	c := &b.Cols[col]
	switch c.Kind {
	case ColInt:
		return c.Ints[row]
	case ColString:
		return c.Strs[row]
	case ColBool:
		return c.Bools[row]
	default:
		return c.Labels[c.Codes[row]]
	}
}

// Block appends a row block: the row count, the column count, then per
// column its kind byte and its vector. No value carries a tag of its
// own.
func (w *Writer) Block(b *Block) {
	w.Uvarint(uint64(b.Rows))
	w.Uvarint(uint64(len(b.Cols)))
	for i := range b.Cols {
		c := &b.Cols[i]
		w.buf = append(w.buf, c.Kind)
		switch c.Kind {
		case ColInt:
			for _, v := range c.Ints {
				w.buf = binary.AppendVarint(w.buf, v)
			}
		case ColString:
			w.strVec(c.Strs)
		case ColBool:
			for _, v := range c.Bools {
				w.Bool(v)
			}
		case ColEnum:
			w.Uvarint(uint64(len(c.Labels)))
			w.strVec(c.Labels)
			for _, v := range c.Codes {
				w.Uvarint(uint64(v))
			}
		}
	}
}

// strVec appends a string vector: every length, then all bytes in one
// run.
func (w *Writer) strVec(ss []string) {
	for _, s := range ss {
		w.Uvarint(uint64(len(s)))
	}
	for _, s := range ss {
		w.buf = append(w.buf, s...)
	}
}

// RowBatch appends the payload of a RowBatch frame: the done flag, then
// one block.
func (w *Writer) RowBatch(done bool, b *Block) {
	w.Bool(done)
	w.Block(b)
}

// Rows appends native rows (int64, string and bool values) as row
// blocks, one per run of rows with the same length and column types:
// a single block for any query result. The blocks end the payload;
// callers write the column header before them. Each block is encoded
// straight from the rows, in the layout Block writes.
func (w *Writer) Rows(rows [][]any) error {
	start := 0
	for {
		end := start
		if start < len(rows) {
			first := rows[start]
			if len(first) == 0 {
				return fmt.Errorf("protocol: cannot encode a row without values")
			}
			for _, v := range first {
				if nativeKind(v) == 0 {
					return fmt.Errorf("protocol: cannot encode value of type %T", v)
				}
			}
			for end++; end < len(rows) && sameShape(rows[end], first); end++ {
			}
		}
		w.rowRun(rows[start:end])
		if end == len(rows) {
			return nil
		}
		start = end
	}
}

// rowRun appends rows of one shape as a block.
func (w *Writer) rowRun(rows [][]any) {
	ncols := 0
	if len(rows) > 0 {
		ncols = len(rows[0])
	}
	w.Uvarint(uint64(len(rows)))
	w.Uvarint(uint64(ncols))
	for j := 0; j < ncols; j++ {
		kind := nativeKind(rows[0][j])
		w.buf = append(w.buf, kind)
		switch kind {
		case ColInt:
			for _, r := range rows {
				w.buf = binary.AppendVarint(w.buf, r[j].(int64))
			}
		case ColString:
			for _, r := range rows {
				w.Uvarint(uint64(len(r[j].(string))))
			}
			for _, r := range rows {
				w.buf = append(w.buf, r[j].(string)...)
			}
		case ColBool:
			for _, r := range rows {
				w.Bool(r[j].(bool))
			}
		}
	}
}

// nativeKind maps a native value to its column kind; 0 for any other
// type.
func nativeKind(v any) byte {
	switch v.(type) {
	case int64:
		return ColInt
	case string:
		return ColString
	case bool:
		return ColBool
	}
	return 0
}

// sameShape reports whether row has first's length and column kinds.
func sameShape(row, first []any) bool {
	if len(row) != len(first) {
		return false
	}
	for j, v := range row {
		if nativeKind(v) != nativeKind(first[j]) {
			return false
		}
	}
	return true
}

// Block decodes a row block into b, reusing its vectors. Decoded
// strings share one allocation per string vector. Only the canonical
// encoding Writer.Block produces is accepted: minimal varints, boolean
// bytes 0 or 1, label codes inside their table, and no rows without
// columns.
func (r *Reader) Block(b *Block) error {
	rows, err := r.count()
	if err != nil {
		return err
	}
	ncols, err := r.count()
	if err != nil {
		return err
	}
	if ncols == 0 && rows != 0 {
		return fmt.Errorf("protocol: %d rows without columns", rows)
	}
	if cap(b.Cols) < ncols {
		b.Cols = make([]Column, ncols)
	}
	b.Cols = b.Cols[:ncols]
	b.Reset()
	b.Rows = rows
	for i := range b.Cols {
		c := &b.Cols[i]
		if c.Kind, err = r.Byte(); err != nil {
			return err
		}
		switch c.Kind {
		case ColInt:
			c.Ints = slices.Grow(c.Ints, rows)
			for range rows {
				u, err := r.canonUvarint()
				if err != nil {
					return err
				}
				c.Ints = append(c.Ints, int64(u>>1)^-int64(u&1))
			}
		case ColString:
			if c.Strs, err = r.strVec(c.Strs, rows); err != nil {
				return err
			}
		case ColBool:
			c.Bools = slices.Grow(c.Bools, rows)
			for range rows {
				v, err := r.Byte()
				if err != nil {
					return err
				}
				if v > 1 {
					return fmt.Errorf("protocol: boolean byte %d", v)
				}
				c.Bools = append(c.Bools, v == 1)
			}
		case ColEnum:
			n, err := r.count()
			if err != nil {
				return err
			}
			if c.Labels, err = r.strVec(c.Labels[:0], n); err != nil {
				return err
			}
			c.Codes = slices.Grow(c.Codes, rows)
			for range rows {
				u, err := r.canonUvarint()
				if err != nil {
					return err
				}
				if u >= uint64(n) {
					return fmt.Errorf("protocol: label code %d outside a table of %d", u, n)
				}
				c.Codes = append(c.Codes, uint32(u))
			}
		default:
			return fmt.Errorf("protocol: unknown column kind %d", c.Kind)
		}
	}
	return nil
}

// RowBatch decodes the payload of a RowBatch frame into b and returns
// its done flag. The payload must end with the block.
func (r *Reader) RowBatch(b *Block) (bool, error) {
	done, err := r.Byte()
	if err != nil {
		return false, err
	}
	if done > 1 {
		return false, fmt.Errorf("protocol: done byte %d", done)
	}
	if err := r.Block(b); err != nil {
		return false, err
	}
	if r.Len() != 0 {
		return false, fmt.Errorf("protocol: %d bytes after the row batch", r.Len())
	}
	return done == 1, nil
}

// Rows decodes the row blocks that end the payload into native
// values. The rows of a block share one backing array, but each has
// its own capacity-capped slice.
func (r *Reader) Rows() ([][]any, error) {
	rows := [][]any{}
	var b Block
	for {
		if err := r.Block(&b); err != nil {
			return nil, err
		}
		ncols := len(b.Cols)
		flat := make([]any, b.Rows*ncols)
		for i := 0; i < b.Rows; i++ {
			row := flat[i*ncols : (i+1)*ncols : (i+1)*ncols]
			for j := range row {
				row[j] = b.Value(i, j)
			}
			rows = append(rows, row)
		}
		if r.Len() == 0 {
			return rows, nil
		}
	}
}

// count reads a canonical uvarint that counts items of at least one
// byte each, so it cannot exceed the unread payload.
func (r *Reader) count() (int, error) {
	n, err := r.canonUvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(r.Len()) {
		return 0, fmt.Errorf("protocol: count %d exceeds the %d bytes left", n, r.Len())
	}
	return int(n), nil
}

// canonUvarint reads a uvarint in its minimal encoding: a longer one
// would not re-encode to the same bytes.
func (r *Reader) canonUvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.i:])
	if n <= 0 {
		return 0, fmt.Errorf("protocol: truncated uvarint")
	}
	if n > 1 && r.buf[r.i+n-1] == 0 {
		return 0, fmt.Errorf("protocol: overlong uvarint")
	}
	r.i += n
	return v, nil
}

// strVec decodes a string vector of n strings appended to dst. The
// strings are slices of one string holding the whole byte run.
func (r *Reader) strVec(dst []string, n int) ([]string, error) {
	lens := *r
	total := 0
	for range n {
		l, err := r.canonUvarint()
		if err != nil {
			return dst, err
		}
		if l > uint64(r.Len()-total) {
			return dst, fmt.Errorf("protocol: string of %d bytes exceeds the frame", l)
		}
		total += int(l)
	}
	if total > r.Len() {
		return dst, fmt.Errorf("protocol: string run of %d bytes exceeds the frame", total)
	}
	run := string(r.buf[r.i : r.i+total])
	r.i += total
	dst = slices.Grow(dst, n)
	off := 0
	for range n {
		l, _ := lens.canonUvarint()
		dst = append(dst, run[off:off+int(l)])
		off += int(l)
	}
	return dst, nil
}
