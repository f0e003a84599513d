package storage

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"

	"pascalr/internal/protocol"
	"pascalr/internal/value"
)

// An SSTable is one immutable sorted-table file holding the live slots
// of a contiguous slot range of one relation, flushed from the
// memtable (or produced by compaction). The layout:
//
//	[8]  magic "PRSST002"
//	     data section: PAX blocks, back to back, each one CRC frame
//	       (record.go framing) holding up to sstBlockRows live records
//	       in ascending slot order, column by column (block.go)
//	     index section: entries sorted by encoded key (no framing)
//	       string encodedKey, uvarint si
//	     footer: one CRC frame
//	       payload: count, lo, hi, indexOff, maxKeySeg,
//	                bloom (k + packed words),
//	                columns (per column: kind, enum type name),
//	                block directory (per block: first slot, frame
//	                length, rows; offsets are implied, blocks being
//	                contiguous from the magic to indexOff),
//	                sparse key index (every sstSparseEvery-th entry:
//	                key, offset)
//	[4]  footer frame length
//	[8]  magic "PRSSTEND"
//
// The storage layer sees no schema, so the column kinds (and the
// enumeration type name of enum columns) are those of the first record;
// the relation layer checks every tuple against one schema, and the
// writer refuses a record that disagrees.
//
// Blocks are in ascending slot order, so the merging read path presents
// the engine's slot-ordered scan by walking tables in range order and
// each table's directory in block order. A batch scan reads a block
// into a reused buffer, verifies its one CRC, and decodes only the
// requested columns, one tight loop per column. Point reads never touch
// the data section blindly: a key probe consults the bloom filter first
// (definitely-absent keys skip the table entirely), then binary-searches
// the sparse key index and decodes one bounded index segment; a slot
// fetch binary-searches the directory, takes the block through the
// block cache, and binary-searches its slot vector.
//
// There are deliberately no per-block zone maps (min/max per column):
// a scan that skipped blocks by predicate would read fewer tuples than
// the in-memory scan of the same relation, and the differential matrix
// demands identical "tuples read" counters for stores with and without
// files.
const (
	sstMagic    = "PRSST002"
	sstEndMagic = "PRSSTEND"

	// sstSparseEvery is the sparse key index granularity: one retained
	// (key, offset) pair per this many index entries.
	sstSparseEvery = 16
)

// SSEntry is one live slot handed to the SSTable writer.
type SSEntry struct {
	Si    int
	Enc   string
	Tuple []value.Value
}

type spKey struct {
	key string
	off int64
}

// blockRef is one block directory entry: where the block's frame lies
// in the file and which slots it can hold. A block's slots lie in
// [first, first of the next block), the last block's below the table's
// hi.
type blockRef struct {
	first  int   // slot of the block's first record
	off    int64 // file offset of the frame
	length int   // frame bytes, header included
	rows   int
}

// ssTable is an open SSTable file handle plus its in-memory probe
// structures (bloom filter, column kinds, block directory, sparse key
// index); the data itself stays on disk, fronted for point reads by the
// shared block cache.
type ssTable struct {
	path   string
	name   string
	f      *os.File
	id     uint64 // process-unique block-cache file ID
	lo, hi int    // slot range [lo, hi)
	count  int

	indexOff  int64 // data section ends here
	footerOff int64 // index section ends here
	maxKeySeg int   // byte bound of one sparse-key segment

	filter *bloom
	kinds  []value.Kind // per-column kinds
	enums  []string     // enumeration type name per enum column ("" otherwise)
	blocks []blockRef
	spKeys []spKey

	cache *BlockCache // shared, nil when caching is disabled

	// pins counts in-flight reads; the obsolete-file GC refuses to
	// unlink a table while any read holds a pin (belt and braces on top
	// of the lock discipline, which already excludes readers during
	// table swaps).
	pins atomic.Int32
}

// nextFileID hands out process-unique cache file IDs. File names cannot
// serve as cache keys: generations restart per database directory and
// tests open many databases in one process.
var nextFileID atomic.Uint64

// writeSSTable builds and atomically writes an SSTable (tmp + rename)
// and returns the opened handle, fronted by cache (nil ok). Entries
// must be in ascending slot order; span is the exclusive slot range
// [lo, hi) the table covers (it may exceed the entries' own range when
// dead slots were dropped).
func writeSSTable(dir, name string, entries []SSEntry, lo, hi int, cache *BlockCache) (*ssTable, error) {
	var kinds []value.Kind
	var enums []string
	if len(entries) > 0 {
		var err error
		if kinds, enums, err = columnsOf(entries[0].Tuple); err != nil {
			return nil, fmt.Errorf("storage: sstable %s: %w", name, err)
		}
	}
	buf := make([]byte, 0, 64<<10)
	buf = append(buf, sstMagic...)

	// Data section: one block per run of entries.
	var blocks []blockRef
	prev := lo - 1
	for start := 0; start < len(entries); {
		end := blockCut(entries, start)
		for _, e := range entries[start:end] {
			if e.Si <= prev || e.Si >= hi || e.Si > maxSlot {
				return nil, fmt.Errorf("storage: sstable %s: slot %d out of order or outside [%d, %d)", name, e.Si, lo, hi)
			}
			prev = e.Si
		}
		off := len(buf)
		var err error
		if buf, err = appendBlock(buf, entries[start:end], kinds, enums); err != nil {
			return nil, fmt.Errorf("storage: sstable %s: %w", name, err)
		}
		blocks = append(blocks, blockRef{first: entries[start].Si, off: int64(off), length: len(buf) - off, rows: end - start})
		start = end
	}
	indexOff := int64(len(buf))

	// Index section: (key, si) sorted by encoded key.
	byKey := make([]int, len(entries))
	for i := range byKey {
		byKey[i] = i
	}
	sort.Slice(byKey, func(a, b int) bool { return entries[byKey[a]].Enc < entries[byKey[b]].Enc })
	filter := newBloom(len(entries))
	var spKeys []spKey
	maxKeySeg := 0
	segStart := len(buf)
	for i, ei := range byKey {
		e := entries[ei]
		filter.add(e.Enc)
		if i%sstSparseEvery == 0 {
			if i > 0 && len(buf)-segStart > maxKeySeg {
				maxKeySeg = len(buf) - segStart
			}
			spKeys = append(spKeys, spKey{key: e.Enc, off: int64(len(buf))})
			segStart = len(buf)
		}
		buf = binary.AppendUvarint(buf, uint64(len(e.Enc)))
		buf = append(buf, e.Enc...)
		buf = binary.AppendUvarint(buf, uint64(e.Si))
	}
	if len(buf)-segStart > maxKeySeg {
		maxKeySeg = len(buf) - segStart
	}

	// Footer.
	fw := protocol.NewWriter()
	fw.Uvarint(uint64(len(entries)))
	fw.Uvarint(uint64(lo))
	fw.Uvarint(uint64(hi))
	fw.Uvarint(uint64(indexOff))
	fw.Uvarint(uint64(maxKeySeg))
	fw.Uvarint(uint64(filter.k))
	words := make([]byte, 8*len(filter.bits))
	for i, wd := range filter.bits {
		binary.LittleEndian.PutUint64(words[8*i:], wd)
	}
	fw.String(string(words))
	fw.Uvarint(uint64(len(kinds)))
	for c, k := range kinds {
		fw.Uvarint(uint64(k))
		fw.String(enums[c])
	}
	fw.Uvarint(uint64(len(blocks)))
	for _, b := range blocks {
		fw.Uvarint(uint64(b.first))
		fw.Uvarint(uint64(b.length))
		fw.Uvarint(uint64(b.rows))
	}
	fw.Uvarint(uint64(len(spKeys)))
	for _, s := range spKeys {
		fw.String(s.key)
		fw.Uvarint(uint64(s.off))
	}
	footerStart := len(buf)
	buf = appendFrame(buf, fw.Bytes())
	var flen [4]byte
	binary.BigEndian.PutUint32(flen[:], uint32(len(buf)-footerStart))
	buf = append(buf, flen[:]...)
	buf = append(buf, sstEndMagic...)

	// Durable write: the next checkpoint's manifest will reference this
	// file by name, and the manifest commit truncates the WAL — so the
	// table (data and directory entry both) must already be on stable
	// storage by then, not just in the page cache.
	path := filepath.Join(dir, name)
	if err := writeFileDurable(path, buf); err != nil {
		return nil, err
	}
	return openSSTable(path, cache)
}

// openSSTable opens an SSTable file, verifying and loading its footer
// (bloom filter, column kinds, block directory, sparse key index). The
// cache (nil ok) fronts the table's point reads for its lifetime.
func openSSTable(path string, cache *BlockCache) (*ssTable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	t := &ssTable{path: path, name: filepath.Base(path), f: f, cache: cache, id: nextFileID.Add(1)}
	if err := t.loadFooter(); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: sstable %s: %w", t.name, err)
	}
	return t, nil
}

// readSegment returns the index-section bytes [off, end), serving from
// the block cache when resident.
func (t *ssTable) readSegment(off, end int64) ([]byte, error) {
	if data, ok := t.cache.Get(t.id, off); ok {
		return data, nil
	}
	seg := make([]byte, end-off)
	if _, err := t.f.ReadAt(seg, off); err != nil {
		return nil, err
	}
	// The segment bounds are a pure function of the immutable file and
	// off (sparse index + max-segment clamp), so (id, off) fully
	// identifies these bytes and the entry can never go stale.
	t.cache.Put(t.id, off, seg)
	return seg, nil
}

// readBlock reads block bi from the file into buf (grown when too
// small, and returned for reuse), verifies its CRC, and parses it into
// v, slot vector checked. v aliases buf until the next read into it.
func (t *ssTable) readBlock(bi int, buf []byte, v *blockView) ([]byte, error) {
	ref := t.blocks[bi]
	if cap(buf) < ref.length {
		buf = make([]byte, ref.length)
	}
	buf = buf[:ref.length]
	if _, err := t.f.ReadAt(buf, ref.off); err != nil {
		return buf, fmt.Errorf("storage: sstable %s: block %d: %w", t.name, bi, err)
	}
	mSSTableBlocksRead.Inc()
	mSSTableBlockBytes.Add(int64(ref.length))
	payload, end, err := readFrame(buf, 0)
	if err == nil && end != ref.length {
		err = fmt.Errorf("frame of %d bytes in a %d-byte directory entry", end, ref.length)
	}
	if err == nil {
		if err = v.parse(payload, t.kinds, t.enums); err == nil {
			err = v.checkSlots(ref, t.blockEnd(bi))
		}
	}
	if err != nil {
		return buf, fmt.Errorf("storage: sstable %s: block %d: %w", t.name, bi, err)
	}
	return buf, nil
}

// cachedBlock parses block bi into v through the block cache: a
// resident block was verified when it was read, a missing one is read,
// verified and handed to the cache. The cache unit is the whole block,
// keyed by its frame offset.
func (t *ssTable) cachedBlock(bi int, v *blockView) error {
	if payload, ok := t.cache.Get(t.id, t.blocks[bi].off); ok {
		return v.parse(payload, t.kinds, t.enums)
	}
	if _, err := t.readBlock(bi, nil, v); err != nil {
		return err
	}
	t.cache.Put(t.id, t.blocks[bi].off, v.payload)
	return nil
}

// blockEnd returns the exclusive upper bound of block bi's slots.
func (t *ssTable) blockEnd(bi int) int {
	if bi+1 < len(t.blocks) {
		return t.blocks[bi+1].first
	}
	return t.hi
}

// seekBlock returns the index of the first block that can hold a slot
// >= lo.
func (t *ssTable) seekBlock(lo int) int {
	// Last block whose first slot is at or below lo; an earlier block
	// ends before it.
	bi := sort.Search(len(t.blocks), func(i int) bool { return t.blocks[i].first > lo }) - 1
	if bi < 0 {
		bi = 0
	}
	return bi
}

// blockScanner is one scan's reusable block buffer and view, carried
// across the blocks and tables it walks.
type blockScanner struct {
	buf  []byte
	view blockView
}

// scanBlocks walks the blocks that can hold slots of [lo, hi) in slot
// order, reading each into sc, and calls fn with the block and its rows
// [r, end) whose slots lie in the range — a bound that falls inside a
// block cuts it by binary search of the slot vector. fn returning false
// stops the walk; keep reports whether iteration should continue into
// the next table. The view is only valid during the call.
func (t *ssTable) scanBlocks(sc *blockScanner, lo, hi int, fn func(v *blockView, r, end int) (bool, error)) (keep bool, err error) {
	if lo >= hi {
		return true, nil
	}
	// Scans bypass the block cache (scan resistance — see BlockCache)
	// but still pin the table against the obsolete-file GC.
	t.pins.Add(1)
	defer t.pins.Add(-1)
	v := &sc.view
	for bi := t.seekBlock(lo); bi < len(t.blocks) && t.blocks[bi].first < hi; bi++ {
		if sc.buf, err = t.readBlock(bi, sc.buf, v); err != nil {
			return false, err
		}
		r, end := 0, v.rows
		if t.blocks[bi].first < lo {
			r = v.search(lo)
		}
		if t.blockEnd(bi) > hi {
			end = v.search(hi)
		}
		if r >= end {
			continue
		}
		if keep, err := fn(v, r, end); err != nil || !keep {
			return false, err
		}
	}
	return true, nil
}

func (t *ssTable) loadFooter() error {
	st, err := t.f.Stat()
	if err != nil {
		return err
	}
	size := st.Size()
	if size < int64(len(sstMagic))+12 {
		return fmt.Errorf("file too short (%d bytes)", size)
	}
	head := make([]byte, len(sstMagic))
	if _, err := t.f.ReadAt(head, 0); err != nil {
		return err
	}
	if string(head) != sstMagic {
		return fmt.Errorf("bad magic %q (this build reads %s only)", head, sstMagic)
	}
	tail := make([]byte, 12)
	if _, err := t.f.ReadAt(tail, size-12); err != nil {
		return err
	}
	if string(tail[4:]) != sstEndMagic {
		return fmt.Errorf("bad end magic")
	}
	flen := int64(binary.BigEndian.Uint32(tail[:4]))
	if flen <= 0 || flen > size-12-int64(len(sstMagic)) {
		return fmt.Errorf("bad footer length %d", flen)
	}
	t.footerOff = size - 12 - flen
	frame := make([]byte, flen)
	if _, err := t.f.ReadAt(frame, t.footerOff); err != nil {
		return err
	}
	payload, end, err := readFrame(frame, 0)
	if err != nil || int64(end) != flen {
		return fmt.Errorf("corrupt footer: %v", err)
	}
	return t.parseFooter(payload)
}

func (t *ssTable) parseFooter(payload []byte) error {
	pr := protocol.NewReader(payload)
	var head [6]uint64 // count, lo, hi, indexOff, maxKeySeg, bloom k
	for i := range head {
		v, err := pr.Uvarint()
		if err != nil {
			return err
		}
		head[i] = v
	}
	count, lo, hi, indexOff, maxKeySeg, k := head[0], head[1], head[2], head[3], head[4], head[5]
	words, err := pr.String()
	if err != nil {
		return err
	}
	if hi < lo || hi > maxSlot+1 || count > hi-lo || indexOff < uint64(len(sstMagic)) || indexOff > uint64(t.footerOff) ||
		maxKeySeg > uint64(t.footerOff) || len(words)%8 != 0 || k == 0 || k > 64 {
		return fmt.Errorf("inconsistent footer")
	}
	t.count, t.lo, t.hi = int(count), int(lo), int(hi)
	t.indexOff = int64(indexOff)
	t.maxKeySeg = int(maxKeySeg)
	bits := make([]uint64, len(words)/8)
	for i := range bits {
		bits[i] = binary.LittleEndian.Uint64([]byte(words[8*i : 8*i+8]))
	}
	t.filter = bloomFromParts(bits, int(k))

	ncols, err := pr.Uvarint()
	if err != nil || ncols > uint64(pr.Len()) { // every column costs at least two bytes
		return fmt.Errorf("bad column count")
	}
	t.kinds = make([]value.Kind, ncols)
	t.enums = make([]string, ncols)
	for c := range t.kinds {
		kind, err1 := pr.Uvarint()
		enum, err2 := pr.String()
		if err1 != nil || err2 != nil {
			return fmt.Errorf("truncated column table")
		}
		if kind > uint64(value.KindRef) || (!value.OrdKind(value.Kind(kind)) && value.Kind(kind) != value.KindString) {
			return fmt.Errorf("column %d has unknown kind %d", c, kind)
		}
		if enum != "" && value.Kind(kind) != value.KindEnum {
			return fmt.Errorf("column %d of kind %s names enumeration %q", c, value.Kind(kind), enum)
		}
		t.kinds[c], t.enums[c] = value.Kind(kind), enum
	}

	nBlocks, err := pr.Uvarint()
	if err != nil || nBlocks > count {
		return fmt.Errorf("bad block count")
	}
	t.blocks = make([]blockRef, 0, nBlocks)
	off, rows, prev := int64(len(sstMagic)), uint64(0), int64(lo)-1
	for range nBlocks {
		first, err1 := pr.Uvarint()
		length, err2 := pr.Uvarint()
		n, err3 := pr.Uvarint()
		if err1 != nil || err2 != nil || err3 != nil {
			return fmt.Errorf("truncated block directory")
		}
		if int64(first) <= prev || first >= hi || n == 0 || n > count-rows ||
			length < frameHeader || length > uint64(t.indexOff-off) {
			return fmt.Errorf("inconsistent block directory")
		}
		t.blocks = append(t.blocks, blockRef{first: int(first), off: off, length: int(length), rows: int(n)})
		// The block's n ascending slots start at first, so the next
		// block's first slot lies at least n further on.
		off, rows, prev = off+int64(length), rows+n, int64(first+n-1)
	}
	if off != t.indexOff || rows != count {
		return fmt.Errorf("block directory covers %d bytes and %d records, want %d and %d", off, rows, t.indexOff, count)
	}

	nKeys, err := pr.Uvarint()
	if err != nil || nKeys > count+1 {
		return fmt.Errorf("bad sparse key count")
	}
	t.spKeys = make([]spKey, 0, nKeys)
	for range nKeys {
		key, err1 := pr.String()
		off, err2 := pr.Uvarint()
		if err1 != nil || err2 != nil {
			return fmt.Errorf("truncated sparse key index")
		}
		if off < indexOff || off > uint64(t.footerOff) {
			return fmt.Errorf("sparse key offset %d outside the index section", off)
		}
		t.spKeys = append(t.spKeys, spKey{key: key, off: int64(off)})
	}
	return nil
}

// get fetches the record at slot si via the block directory; ok is
// false when the slot is not present (dead at flush time).
func (t *ssTable) get(si int) (_ []value.Value, ok bool, err error) {
	if si < t.lo || si >= t.hi || len(t.blocks) == 0 || si < t.blocks[0].first {
		return nil, false, nil
	}
	t.pins.Add(1)
	defer t.pins.Add(-1)
	var v blockView
	if err := t.cachedBlock(t.seekBlock(si), &v); err != nil {
		return nil, false, err
	}
	j := v.search(si)
	if j == v.rows || v.slot(j) != si {
		return nil, false, nil
	}
	tuple, err := v.tuples(j, j+1)
	if err != nil {
		return nil, false, fmt.Errorf("storage: sstable %s: slot %d: %w", t.name, si, err)
	}
	return tuple, true, nil
}

// lookupKey resolves an encoded key to its slot: bloom filter first (a
// definite miss costs no I/O), then one sparse-key segment.
func (t *ssTable) lookupKey(enc string) (_ int, ok bool, err error) {
	if !t.filter.mayContain(enc) || len(t.spKeys) == 0 {
		return 0, false, nil
	}
	i := sort.Search(len(t.spKeys), func(i int) bool { return t.spKeys[i].key > enc }) - 1
	if i < 0 {
		return 0, false, nil
	}
	off := t.spKeys[i].off
	end := t.footerOff
	if o := off + int64(t.maxKeySeg); o < end {
		end = o
	}
	t.pins.Add(1)
	defer t.pins.Add(-1)
	seg, err := t.readSegment(off, end)
	if err != nil {
		return 0, false, fmt.Errorf("storage: sstable %s: %w", t.name, err)
	}
	pr := protocol.NewReader(seg)
	for pr.Len() > 0 {
		key, err := pr.String()
		if err != nil {
			break // segment bound clipped an entry: it is past the segment
		}
		si, err := pr.Uvarint()
		if err != nil {
			break
		}
		if key == enc {
			return int(si), true, nil
		}
		if key > enc {
			break // entries are key-sorted
		}
	}
	return 0, false, nil
}

func (t *ssTable) close() error {
	if t.f == nil {
		return nil
	}
	t.cache.EvictFile(t.id)
	err := t.f.Close()
	t.f = nil
	return err
}
