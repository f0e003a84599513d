package storage

import (
	"encoding/binary"
	"fmt"
	"sort"

	"pascalr/internal/colbatch"
	"pascalr/internal/value"
)

// A block is the unit of the SSTable data section: up to sstBlockRows
// live records in ascending slot order, laid out PAX-style — row-grouped
// like a page, column-major inside it — so that a scan decodes the
// columns it needs with one loop each and never touches the rest. The
// frame payload, all integers little-endian:
//
//	u32  rows
//	u32  column count
//	     per column: u8 kind (must equal the footer's)
//	     slot vector: rows × u32, strictly ascending
//	     per column, in order:
//	       int-backed kind (value.OrdKind): rows × u64 ordinals
//	       string: (rows+1) × u32 end offsets (the first is 0), then the
//	               bytes they cut
//	     encoded-key column, laid out like a string column; only
//	     compaction reads it
//
// Every region's position follows from the kinds and the row count, so a
// reader locates a column by stepping over the ones before it.
const (
	// sstBlockRows is the row bound of one block, chosen by measurement
	// on the university relations (45 to 90 bytes a row). A batch scan of
	// three timetable columns costs 19.6, 17.4, 15.4, 15.9 and 15.6 ns a
	// row at 64, 128, 256, 512 and 1024 rows a block, and a point read
	// that misses the block cache, which reads and checksums a whole
	// block, 3.9, 4.7, 9.9, 17 and 30 us. 128 has most of the scan's gain
	// at half the miss cost of 256; end to end (selective_scan_disk) the
	// two are indistinguishable.
	sstBlockRows = 128

	// sstBlockBytes closes a block of wide records early, keeping blocks
	// far below a quarter of the block cache's budget (the cache admits
	// nothing larger) and below maxRecordSize.
	sstBlockBytes = 128 << 10

	blockHeader = 8

	// maxSlot is the largest slot index: references pack the slot into
	// 31 bits, and batches carry slots as int32.
	maxSlot = 0x7FFFFFFF
)

// columnsOf derives a table's column kinds, and the enumeration type
// name of its enum columns, from one tuple.
func columnsOf(tuple []value.Value) ([]value.Kind, []string, error) {
	kinds := make([]value.Kind, len(tuple))
	enums := make([]string, len(tuple))
	for c, v := range tuple {
		kinds[c] = v.Kind()
		switch {
		case kinds[c] == value.KindEnum:
			enums[c] = v.EnumType()
		case kinds[c] != value.KindString && !value.OrdKind(kinds[c]):
			return nil, nil, fmt.Errorf("column %d: cannot store %s value", c, kinds[c])
		}
	}
	return kinds, enums, nil
}

// blockCut returns the end of the block that starts at rows[start]:
// sstBlockRows rows of run, fewer when they are wide.
func blockCut(run *colRun, rows []int, start int) int {
	end, size := start, 0
	for end < len(rows) && end-start < sstBlockRows {
		i := rows[end]
		size += 8 + len(run.keys[i]) + 8*len(run.kinds)
		for c, k := range run.kinds {
			if k == value.KindString {
				size += len(run.strs[c][i])
			}
		}
		if size > sstBlockBytes && end > start {
			break
		}
		end++
	}
	return end
}

// appendBlock appends rows of run to dst as one framed block.
func appendBlock(dst []byte, run *colRun, rows []int) ([]byte, error) {
	start := len(dst)
	le := binary.LittleEndian
	dst = append(dst, make([]byte, frameHeader)...)
	dst = le.AppendUint32(dst, uint32(len(rows)))
	dst = le.AppendUint32(dst, uint32(len(run.kinds)))
	for _, k := range run.kinds {
		dst = append(dst, byte(k))
	}
	for _, i := range rows {
		dst = le.AppendUint32(dst, uint32(run.slots[i]))
	}
	for c, k := range run.kinds {
		if k != value.KindString {
			for _, i := range rows {
				dst = le.AppendUint64(dst, uint64(run.ords[c][i]))
			}
			continue
		}
		dst = appendStrings(dst, run.strs[c], rows)
	}
	dst = appendStrings(dst, run.keys, rows)
	if len(dst)-start-frameHeader > maxRecordSize {
		return nil, fmt.Errorf("block of %d bytes exceeds the record limit", len(dst)-start-frameHeader)
	}
	sealFrame(dst, start)
	return dst, nil
}

// appendStrings appends strs[i] for every i of rows to dst as a
// string-laid-out region: end offsets, then the bytes they cut.
func appendStrings(dst []byte, strs []string, rows []int) []byte {
	le := binary.LittleEndian
	end := 0
	dst = le.AppendUint32(dst, 0)
	for _, i := range rows {
		end += len(strs[i])
		dst = le.AppendUint32(dst, uint32(end))
	}
	for _, i := range rows {
		dst = append(dst, strs[i]...)
	}
	return dst
}

// blockView is a parsed block: the payload plus where its regions lie.
// It aliases the payload and decodes on demand, so parsing costs
// O(columns) whatever the row count. The zero view is ready for parse,
// and reusing one across blocks reuses its offset table.
type blockView struct {
	payload []byte
	rows    int
	kinds   []value.Kind // the table's, shared
	enums   []string
	slots   []byte // rows × u32
	colOff  []int  // payload offset of each column's region; the key column's last
}

// parse points v at payload, checking the header against the table's
// column kinds and that every region lies inside the payload. String
// offsets are checked by the decoders, as they walk them.
func (v *blockView) parse(payload []byte, kinds []value.Kind, enums []string) error {
	if len(payload) < blockHeader {
		return fmt.Errorf("block of %d bytes has no header", len(payload))
	}
	rows := uint64(binary.LittleEndian.Uint32(payload))
	ncols := uint64(binary.LittleEndian.Uint32(payload[4:]))
	if ncols != uint64(len(kinds)) {
		return fmt.Errorf("block has %d columns, the footer %d", ncols, len(kinds))
	}
	pos := uint64(blockHeader)
	rest := func() uint64 { return uint64(len(payload)) - pos }
	if rest() < ncols {
		return fmt.Errorf("truncated column kinds")
	}
	for c, k := range kinds {
		if got := value.Kind(payload[pos+uint64(c)]); got != k {
			return fmt.Errorf("block column %d is %s, the footer says %s", c, got, k)
		}
	}
	pos += ncols
	if rows == 0 || rows > maxSlot || rest() < 4*rows {
		return fmt.Errorf("bad row count %d", rows)
	}
	v.payload, v.rows, v.kinds, v.enums = payload, int(rows), kinds, enums
	v.slots = payload[pos : pos+4*rows]
	pos += 4 * rows
	if cap(v.colOff) <= len(kinds) {
		v.colOff = make([]int, 0, len(kinds)+1)
	}
	v.colOff = v.colOff[:0]
	for c := 0; c <= len(kinds); c++ { // the key column follows the table's
		v.colOff = append(v.colOff, int(pos))
		if c < len(kinds) && kinds[c] != value.KindString {
			if rest() < 8*rows {
				return fmt.Errorf("truncated column %d", c)
			}
			pos += 8 * rows
			continue
		}
		if rest() < 4*(rows+1) {
			return fmt.Errorf("truncated offsets of column %d", c)
		}
		pos += 4 * (rows + 1)
		size := uint64(binary.LittleEndian.Uint32(payload[pos-4:]))
		if rest() < size {
			return fmt.Errorf("truncated bytes of column %d", c)
		}
		pos += size
	}
	if rest() != 0 {
		return fmt.Errorf("%d bytes after the last column", rest())
	}
	return nil
}

// checkSlots verifies that the slot vector is strictly ascending within
// the directory entry's bounds [ref.first, end) and holds ref.rows
// slots — what the binary searches and the batch's int32 slots rely on.
// Run once per block read from the file; a cached block was checked
// when it was read.
func (v *blockView) checkSlots(ref blockRef, end int) error {
	if v.rows != ref.rows || v.slot(0) != ref.first {
		return fmt.Errorf("block starts at slot %d with %d rows, the directory says %d and %d", v.slot(0), v.rows, ref.first, ref.rows)
	}
	prev := ref.first - 1
	for j := 0; j < v.rows; j++ {
		si := v.slot(j)
		if si <= prev || si >= end {
			return fmt.Errorf("slot vector out of order or outside [%d, %d) at row %d", ref.first, end, j)
		}
		prev = si
	}
	return nil
}

// slot returns the slot index of row j.
func (v *blockView) slot(j int) int {
	return int(binary.LittleEndian.Uint32(v.slots[4*j:]))
}

// search returns the first row whose slot is >= si (rows when none).
func (v *blockView) search(si int) int {
	return sort.Search(v.rows, func(j int) bool { return v.slot(j) >= si })
}

// ords decodes rows [r, r+len(dst)) of int-backed column c into dst.
func (v *blockView) ords(c int, dst []int64, r int) {
	src := v.payload[v.colOff[c]+8*r:]
	src = src[:8*len(dst)]
	for j := range dst {
		dst[j] = int64(binary.LittleEndian.Uint64(src[8*j:]))
	}
}

// fill appends the k rows from r on to b, materializing the columns
// listed in cols: slots first, then one decode loop per column into a
// span grown for the run.
func (v *blockView) fill(b *colbatch.Batch, cols []int, r, k int) error {
	for j := r; j < r+k; j++ {
		b.AppendSlot(v.slot(j))
	}
	for _, c := range cols {
		switch {
		case c >= len(v.kinds):
			return fmt.Errorf("storage: scan wants column %d of a %d-column table", c, len(v.kinds))
		case b.IsOrd(c) != value.OrdKind(v.kinds[c]):
			return kindMismatch(b, c, v.kinds[c])
		case b.IsOrd(c):
			v.ords(c, b.GrowOrds(c, k), r)
		default:
			if err := v.strs(v.colOff[c], r, b.GrowStrs(c, k)); err != nil {
				return err
			}
		}
	}
	return nil
}

// vals decodes the k rows from r on of column c as boxed values into
// dst[0], dst[stride], dst[2*stride], ...
func (v *blockView) vals(c int, dst []value.Value, stride, r, k int) error {
	kind := v.kinds[c]
	if kind == value.KindString {
		all, offs, base, err := v.strSpan(v.colOff[c], r, k)
		if err != nil {
			return err
		}
		prev := 0
		for j := 0; j < k; j++ {
			next := int(binary.LittleEndian.Uint32(offs[4*(j+1):])) - base
			dst[j*stride] = value.String_(all[prev:next])
			prev = next
		}
		return nil
	}
	src := v.payload[v.colOff[c]+8*r:]
	enum := v.enums[c]
	for j := 0; j < k; j++ {
		dst[j*stride] = value.MakeOrd(kind, int64(binary.LittleEndian.Uint64(src[8*j:])), enum)
	}
	return nil
}

// tuples decodes rows [r, end) into dst, grown as needed, as one
// row-major array: row j's tuple is the (j-r)-th run of len(kinds)
// values. One string allocation per string column serves the rows.
func (v *blockView) tuples(dst []value.Value, r, end int) ([]value.Value, error) {
	ncols := len(v.kinds)
	if n := (end - r) * ncols; cap(dst) < n {
		dst = make([]value.Value, n)
	} else {
		dst = dst[:n]
	}
	for c := range v.kinds {
		if err := v.vals(c, dst[c:], ncols, r, end-r); err != nil {
			return nil, fmt.Errorf("column %d: %w", c, err)
		}
	}
	return dst, nil
}

// strSpan checks the offsets of the k rows from r on in the
// string-laid-out region at payload offset off (a string column or the
// key column) and copies the rows' bytes once, as one string the values
// share: row r+j is all[at(j)-base : at(j+1)-base], at(j) being the j-th
// u32 of offs.
func (v *blockView) strSpan(off, r, k int) (all string, offs []byte, base int, err error) {
	offs = v.payload[off+4*r : off+4*(r+k+1)]
	data := v.payload[off+4*(v.rows+1):]
	data = data[:binary.LittleEndian.Uint32(v.payload[off+4*v.rows:])] // parse checked that the region holds them
	base = int(binary.LittleEndian.Uint32(offs))
	prev := base
	for j := 1; j <= k; j++ {
		next := int(binary.LittleEndian.Uint32(offs[4*j:]))
		if next < prev {
			return "", nil, 0, fmt.Errorf("string offsets out of order at row %d", r+j-1)
		}
		prev = next
	}
	if prev > len(data) {
		return "", nil, 0, fmt.Errorf("string offsets %d..%d outside %d bytes", base, prev, len(data))
	}
	return string(data[base:prev]), offs, base, nil
}

// strs decodes the len(dst) strings from row r on of the
// string-laid-out region at payload offset off into dst.
func (v *blockView) strs(off, r int, dst []string) error {
	all, offs, base, err := v.strSpan(off, r, len(dst))
	if err != nil {
		return err
	}
	prev := 0
	for j := range dst {
		next := int(binary.LittleEndian.Uint32(offs[4*(j+1):])) - base
		dst[j] = all[prev:next]
		prev = next
	}
	return nil
}
