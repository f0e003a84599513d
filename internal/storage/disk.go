package storage

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"

	"pascalr/internal/colbatch"
	"pascalr/internal/value"
)

// Disk is the slot store of one relation: an append-only array of
// slots, each live or dead, plus a key directory.
//
// Slot indexes are handed out by Append in strictly ascending order and
// are never reused: a slot that dies (Delete, Reset) stays dead forever.
// That append-only discipline is what makes the relation layer's
// reference staleness check (per-slot generation counters) collapse to
// "live slot == generation zero", and it is what lets the store keep
// immutable SSTable files whose slot ranges never overlap.
//
// A Disk is NOT internally synchronized. The relation layer serializes
// mutators under its database-wide content write lock and readers under
// the content read lock (compaction runs under an exclusive section
// scheduled on the database's async executor).
//
// Appends land in the memtable, one column run (colRun) in slot order:
// its position i holds slot memBase+i, each cell copied into its
// column's vector, the layout batch scans read. A store with a
// directory flushes the memtable's live rows, once it fills, to an
// immutable SSTable file covering the memtable's slot range; tables
// therefore have disjoint, ascending slot ranges, and the read path is a
// walk over tables-then-memtable in range order — exactly the
// slot-ordered scan the engine consumes. A store with no directory
// (NewMemory) is its memtable alone: it never spills and never writes a
// file.
//
// Deletes of table-resident slots land in the dead set (tombstones);
// the := assignment raises resetFloor instead (every slot below it is
// dead), so neither touches the immutable files. Compaction rewrites
// tables dropping dead and below-floor records; superseded files move
// to the obsolete list and are unlinked only after the next checkpoint
// manifest stops referencing them.
type Disk struct {
	dir   string // "" for a store with no directory
	relID int
	opts  Options

	tables     []*ssTable   // ascending, disjoint slot ranges
	dead       map[int]bool // table-resident tombstones
	resetFloor int          // every slot < resetFloor is dead

	mem      colRun
	memBase  int
	memByKey map[string]int // encoded key -> memtable position, live rows only

	tableLive int // live (non-dead, above-floor) records in tables

	nextGen  int        // SSTable file-name generation counter
	obsolete []*ssTable // closed tables superseded since the last checkpoint

	cache *BlockCache // shared per-database block cache, nil when disabled

	bloomNegSkipped uint64 // probes answered "absent" by filters alone
}

// DiskTableMeta is the per-relation durable state a checkpoint manifest
// records and OpenDisk restores.
type DiskTableMeta struct {
	SlotSpan   int
	ResetFloor int
	NextGen    int
	Tables     []string
	Dead       []int
	Live       int
}

// NewMemory returns an empty store with no directory: no tables, bloom
// filters or block cache, and a memtable that never spills. It is
// volatile; durable databases pair stores with a directory with the
// WAL.
func NewMemory() *Disk {
	return NewDisk("", 0, Options{MemtableEntries: math.MaxInt}, nil)
}

// NewDisk creates an empty store writing its files into dir.
// cache is the database's shared block cache (nil disables caching).
func NewDisk(dir string, relID int, opts Options, cache *BlockCache) *Disk {
	return &Disk{
		dir:      dir,
		relID:    relID,
		opts:     opts.withDefaults(),
		dead:     make(map[int]bool),
		memByKey: make(map[string]int),
		cache:    cache,
	}
}

// OpenDisk reconstitutes a store from checkpoint metadata, opening the
// listed SSTable files (loading their bloom filters and sparse indexes).
func OpenDisk(dir string, relID int, opts Options, cache *BlockCache, meta DiskTableMeta) (*Disk, error) {
	d := NewDisk(dir, relID, opts, cache)
	d.resetFloor = meta.ResetFloor
	d.nextGen = meta.NextGen
	d.tableLive = meta.Live
	for _, name := range meta.Tables {
		t, err := openSSTable(filepath.Join(dir, name), cache)
		if err != nil {
			d.Close()
			return nil, err
		}
		d.tables = append(d.tables, t)
	}
	sort.Slice(d.tables, func(i, j int) bool { return d.tables[i].lo < d.tables[j].lo })
	for _, si := range meta.Dead {
		d.dead[si] = true
	}
	d.memBase = meta.SlotSpan
	return d, nil
}

// Meta snapshots the durable state for a checkpoint manifest. The
// memtable must be empty (Flush first).
func (d *Disk) Meta() DiskTableMeta {
	m := DiskTableMeta{
		SlotSpan:   d.SlotSpan(),
		ResetFloor: d.resetFloor,
		NextGen:    d.nextGen,
		Live:       d.tableLive,
	}
	for _, t := range d.tables {
		m.Tables = append(m.Tables, t.name)
	}
	m.Dead = make([]int, 0, len(d.dead))
	for si := range d.dead {
		m.Dead = append(m.Dead, si)
	}
	sort.Ints(m.Dead)
	return m
}

// SlotSpan returns the exclusive upper bound of slot indexes — the end
// of the range a full scan covers.
func (d *Disk) SlotSpan() int { return d.memBase + d.mem.len() }

// Get is GetInto with a fresh tuple.
func (d *Disk) Get(si int) ([]value.Value, bool, error) { return d.GetInto(si, nil) }

// GetInto fills dst, grown as needed, with the tuple stored at slot si
// and returns it with whether the slot is live. Dead or
// never-allocated slots return (nil, false, nil). The tuple belongs to
// the caller.
func (d *Disk) GetInto(si int, dst []value.Value) ([]value.Value, bool, error) {
	if si < 0 || si >= d.SlotSpan() {
		return nil, false, nil
	}
	if si >= d.memBase {
		i := si - d.memBase
		if !d.mem.live[i] {
			return nil, false, nil
		}
		return d.mem.row(i, dst), true, nil
	}
	if si < d.resetFloor || d.dead[si] {
		return nil, false, nil
	}
	t := d.tableFor(si)
	if t == nil {
		return nil, false, nil
	}
	mSSTableReads.Inc()
	return t.get(si, dst)
}

// tableFor returns the table whose range covers si, or nil.
func (d *Disk) tableFor(si int) *ssTable {
	i := sort.Search(len(d.tables), func(i int) bool { return d.tables[i].hi > si })
	if i < len(d.tables) && d.tables[i].lo <= si {
		return d.tables[i]
	}
	return nil
}

// Scan calls fn for every live slot in [lo, hi) in ascending slot order
// — tables in range order, then the memtable — until fn returns false.
// Bounds are clamped to the slot span. The tuple lives in a buffer the
// scan reuses: fn must neither modify nor retain it.
func (d *Disk) Scan(lo, hi int, fn func(si int, tuple []value.Value) bool) error {
	lo, hi = d.clampScan(lo, hi)
	var buf []value.Value
	if lo < d.memBase {
		keep, err := d.walkBlocks(lo, hi, func(v *blockView, r, end int) (bool, error) {
			var err error
			if buf, err = v.tuples(buf, r, end); err != nil {
				return false, err
			}
			n := len(v.kinds)
			for j := r; j < end; j++ {
				if si := v.slot(j); !d.dead[si] && !fn(si, buf[(j-r)*n:][:n:n]) {
					return false, nil
				}
			}
			return true, nil
		})
		if err != nil || !keep {
			return err
		}
	}
	for si := max(lo, d.memBase); si < hi; si++ {
		if i := si - d.memBase; d.mem.live[i] {
			if buf = d.mem.row(i, buf); !fn(si, buf) {
				return nil
			}
		}
	}
	return nil
}

// walkBlocks hands the table-resident rows of [lo, hi) to fn a block at
// a time, tables in range order (see ssTable.scanBlocks); keep reports
// whether fn let the walk run to the end.
func (d *Disk) walkBlocks(lo, hi int, fn func(v *blockView, r, end int) (bool, error)) (keep bool, err error) {
	var sc blockScanner
	for _, t := range d.tables {
		if t.hi <= lo {
			continue
		}
		if t.lo >= hi {
			break
		}
		mSSTableReads.Inc()
		if keep, err := t.scanBlocks(&sc, lo, hi, fn); err != nil || !keep {
			return false, err
		}
	}
	return true, nil
}

// clampScan clamps scan bounds to the slots that can be live: below the
// reset floor every slot is dead, so a scan starts there at the
// earliest and the table walk needs no floor test of its own.
func (d *Disk) clampScan(lo, hi int) (int, int) {
	if lo < d.resetFloor {
		lo = d.resetFloor
	}
	if span := d.SlotSpan(); hi > span {
		hi = span
	}
	return lo, hi
}

// ScanBatchesInto is the columnar scan: it appends every live slot in
// [lo, hi), in ascending slot order, to b — the slot index plus the
// columns listed in cols (nil = all columns, an empty list = none) —
// and calls flush whenever b fills, plus once for a trailing partial
// batch. flush counts, consumes and resets the batch; its error aborts
// the scan and is returned. Int-backed columns of a configured batch are
// filled as raw ordinals. Bounds are clamped to the slot span.
//
// Rows fill in stretches of live rows (fillLive), one loop per
// requested column over each. Table-resident rows come from their
// blocks: each is read into one reused buffer and checksummed once, and
// only the requested columns are decoded. Memtable rows are copied
// straight from the column run. Liveness is looked up only while there
// are tombstones, or dead memtable rows (the key map holds exactly the
// live ones).
func (d *Disk) ScanBatchesInto(lo, hi int, cols []int, b *colbatch.Batch, flush func() error) error {
	lo, hi = d.clampScan(lo, hi)
	if cols == nil {
		cols = make([]int, b.NumCols())
		for c := range cols {
			cols[c] = c
		}
	}
	if lo < d.memBase {
		_, err := d.walkBlocks(lo, hi, func(v *blockView, r, end int) (bool, error) {
			var dead func(j int) bool
			if len(d.dead) > 0 {
				dead = func(j int) bool { return d.dead[v.slot(j)] }
			}
			err := fillLive(b, r, end, dead, func(r, k int) error { return v.fill(b, cols, r, k) }, flush)
			return err == nil, err
		})
		if err != nil {
			return err
		}
	}
	m := &d.mem
	var dead func(i int) bool
	if len(d.memByKey) < m.len() {
		dead = func(i int) bool { return !m.live[i] }
	}
	fill := func(r, k int) error { return m.fill(b, cols, r, k) }
	if err := fillLive(b, max(lo, d.memBase)-d.memBase, hi-d.memBase, dead, fill, flush); err != nil {
		return err
	}
	if b.Len() > 0 {
		return flush()
	}
	return nil
}

// ProbeKey returns the live slot holding the tuple whose encoded
// primary key is enc: memtable first (its key map holds exactly the
// live rows), then tables newest-first — the first table containing the
// key decides, because a key can only be re-inserted after a delete, and
// that delete tombstoned every older occurrence. A table that cannot be
// read fails the probe.
func (d *Disk) ProbeKey(enc string) (si int, ok bool, err error) {
	if i, ok := d.memByKey[enc]; ok {
		return d.memBase + i, true, nil
	}
	for i := len(d.tables) - 1; i >= 0; i-- {
		t := d.tables[i]
		if t.hi <= d.resetFloor {
			break // this and every older table lie wholly below the floor
		}
		if !t.filter.mayContain(enc) {
			atomic.AddUint64(&d.bloomNegSkipped, 1)
			mBloomSkips.Inc()
			continue
		}
		mBloomHits.Inc()
		mSSTableReads.Inc()
		si, ok, err := t.lookupKey(enc)
		if err != nil {
			return 0, false, err
		}
		if ok {
			if si < d.resetFloor || d.dead[si] {
				return 0, false, nil
			}
			return si, true, nil
		}
	}
	return 0, false, nil
}

// LookupKey is ProbeKey for callers with no error channel (the relation
// layer's Lookup, Get and Delete): an unreadable table answers
// "absent". Scans surface the corruption with a real error, and inserts
// probe with ProbeKey.
func (d *Disk) LookupKey(enc string) (int, bool) {
	si, ok, _ := d.ProbeKey(enc)
	return si, ok
}

// Append stores a new live tuple under the encoded key enc and returns
// its slot index (== the previous SlotSpan), flushing the memtable to an
// SSTable when it reaches the configured entry budget. The caller has
// already checked that enc is not present. The store copies the cells;
// a tuple whose column kinds differ from the memtable's is refused.
func (d *Disk) Append(enc string, tuple []value.Value) (int, error) {
	i := d.mem.len()
	si := d.memBase + i
	if err := d.mem.add(si, enc, tuple); err != nil {
		return 0, fmt.Errorf("storage: relation %d: %w", d.relID, err)
	}
	d.memByKey[enc] = i
	if d.mem.len() >= d.opts.MemtableEntries {
		if err := d.Flush(); err != nil {
			// The caller treats the append as failed and publishes
			// nothing (no live count, no index entries), so the row must
			// not stay visible here either: roll the memtable back to its
			// pre-append state (a failed Flush mutated nothing).
			d.mem.truncate(i)
			delete(d.memByKey, enc)
			return 0, err
		}
	}
	return si, nil
}

// Delete kills slot si, which currently holds the encoded key enc.
func (d *Disk) Delete(si int, enc string) error {
	if si >= d.memBase {
		if i := si - d.memBase; i < d.mem.len() && d.mem.live[i] {
			d.mem.kill(i)
			delete(d.memByKey, enc)
		}
		return nil
	}
	if si >= d.resetFloor && !d.dead[si] {
		d.dead[si] = true
		d.tableLive--
	}
	return nil
}

// Reset kills every live slot (the := assignment). Slot indexes are not
// reused: the next Append continues from the current span. The floor
// rises instead of the immutable files being touched; compaction
// reclaims the space later. Memtable rows die, they are not truncated:
// their positions must keep matching their slots.
func (d *Disk) Reset() error {
	for i := max(d.resetFloor-d.memBase, 0); i < d.mem.len(); i++ {
		d.mem.kill(i)
	}
	d.resetFloor = d.SlotSpan()
	d.memByKey = make(map[string]int)
	d.tableLive = 0
	clear(d.dead)
	return nil
}

// Flush spills the memtable's live rows to a new SSTable covering the
// memtable's slot range and advances the base. A memtable with no live
// rows advances the base without writing a file; a store with no
// directory never flushes. Idempotent per fill: replaying the same
// appends re-flushes at the same point with the same contents.
func (d *Disk) Flush() error {
	n := d.mem.len()
	if n == 0 || d.dir == "" {
		return nil
	}
	if live := len(d.memByKey); live > 0 {
		name := fmt.Sprintf("r%d-g%d.sst", d.relID, d.nextGen)
		d.nextGen++
		t, err := writeSSTable(d.dir, name, &d.mem, d.memBase, d.memBase+n, d.cache)
		if err != nil {
			return err
		}
		d.tables = append(d.tables, t)
		d.tableLive += live
		mMemtableSpills.Inc()
	}
	d.memBase += n
	d.mem = colRun{}
	d.memByKey = make(map[string]int)
	return nil
}

// Size-tiered compaction policy. Tables are bucketed into size tiers
// (tier = log4 of record count); a run of compactionMinRun contiguous
// same-tier tables merges into one table of the next tier, touching at
// most compactionMaxRun inputs per run. Contiguity in slot order is not
// an optimization but an invariant: tables carry disjoint ascending
// slot ranges, and only a contiguous run merges into a table whose
// range stays disjoint from its neighbors'.
const (
	compactionMinRun    = 4 // same-tier run length that triggers a merge
	compactionMaxRun    = 8 // inputs consumed per merge, bounding its cost
	compactionMaxTables = 8 // total table count that forces a fallback merge
)

// tableTier buckets a record count into a size tier: 1-3 records tier
// 0, 4-15 tier 1, 16-63 tier 2, ... A compactionMinRun merge of tier-n
// tables lands in tier n+1, so repeated merges climb the tiers instead
// of rewriting the whole keyspace every time.
func tableTier(count int) int {
	tier := 0
	for count >= 4 {
		count /= 4
		tier++
	}
	return tier
}

// pickTieredRun returns the table-index range [lo, hi) of the best
// mergeable run: the lowest-tier run of at least compactionMinRun
// contiguous same-tier tables, capped at compactionMaxRun inputs.
// Returns an empty range when no tier has a long-enough run.
func (d *Disk) pickTieredRun() (lo, hi int) {
	found := false
	bestTier := 0
	for i := 0; i < len(d.tables); {
		tier := tableTier(d.tables[i].count)
		j := i + 1
		for j < len(d.tables) && tableTier(d.tables[j].count) == tier {
			j++
		}
		if j-i >= compactionMinRun && (!found || tier < bestTier) {
			found, bestTier = true, tier
			lo = i
			hi = min(j, i+compactionMaxRun)
		}
		i = j
	}
	if !found {
		return 0, 0
	}
	return lo, hi
}

// smallestWindow returns the contiguous window of n tables with the
// fewest total records — the cheapest merge that still shrinks the
// table count when tiering alone found no run.
func (d *Disk) smallestWindow(n int) (lo, hi int) {
	if len(d.tables) < n {
		return 0, len(d.tables)
	}
	sum := 0
	for i := 0; i < n; i++ {
		sum += d.tables[i].count
	}
	best, bestSum := 0, sum
	for i := n; i < len(d.tables); i++ {
		sum += d.tables[i].count - d.tables[i-n].count
		if sum < bestSum {
			best, bestSum = i-n+1, sum
		}
	}
	return best, best + n
}

// deadHeavy reports whether tombstoned records dominate the tables.
func (d *Disk) deadHeavy() bool {
	records := 0
	for _, t := range d.tables {
		records += t.count
	}
	return records > 0 && len(d.dead)*2 > records
}

// NeedsCompaction reports whether a compaction run would reclaim space
// or read amplification: whole tables below the reset floor (droppable
// without a rewrite), tombstone-dominated tables, a mergeable same-tier
// run, or simply too many tables.
func (d *Disk) NeedsCompaction() bool {
	for _, t := range d.tables {
		if t.hi <= d.resetFloor {
			return true
		}
	}
	if d.deadHeavy() {
		return true
	}
	if lo, hi := d.pickTieredRun(); hi > lo {
		return true
	}
	return len(d.tables) > compactionMaxTables
}

// Compact runs one round of the size-tiered policy. Below-floor tables
// (wholly dead since a := assignment) retire without any rewrite; then
// one run merges — the whole table set when tombstones dominate, else
// the best same-tier run, else (when the table count is still past the
// bound) the cheapest contiguous window. Superseded files move to the
// obsolete list and are unlinked only by DropObsolete after a
// checkpoint manifest stops referencing them. The caller must hold the
// relation layer's content write lock.
func (d *Disk) Compact() error {
	if len(d.tables) == 0 {
		return nil
	}
	acted := false

	// Phase 1: drop whole tables below the reset floor — every record
	// is dead, so retiring the file reclaims it all for free.
	kept := d.tables[:0]
	for _, t := range d.tables {
		if t.hi <= d.resetFloor {
			d.retire(t)
			acted = true
			continue
		}
		kept = append(kept, t)
	}
	d.tables = kept

	// Phase 2: pick this round's merge run.
	lo, hi := 0, 0
	switch {
	case d.deadHeavy():
		// Tombstones dominate: only a full rewrite visits every dead
		// slot, and it resets the tombstone map in one stroke.
		lo, hi = 0, len(d.tables)
	default:
		lo, hi = d.pickTieredRun()
		if hi == lo && len(d.tables) > compactionMaxTables {
			lo, hi = d.smallestWindow(compactionMinRun)
		}
	}

	// Phase 3: merge tables[lo:hi) into one, dropping dead records.
	if hi-lo >= 2 {
		acted = true
		run := d.tables[lo:hi]
		slotLo, slotHi := run[0].lo, run[len(run)-1].hi
		var live colRun // the merged tables' live rows
		var sc blockScanner
		for _, t := range run {
			_, err := t.scanBlocks(&sc, max(t.lo, d.resetFloor), t.hi, func(v *blockView, r, end int) (bool, error) {
				dead := func(j int) bool { return d.dead[v.slot(j)] }
				err := liveStretches(r, end, dead, func(r, k int) error { return live.addBlock(v, r, k) })
				return err == nil, err
			})
			if err != nil {
				return err
			}
		}
		var merged *ssTable
		if live.len() > 0 {
			name := fmt.Sprintf("r%d-g%d.sst", d.relID, d.nextGen)
			d.nextGen++
			t, err := writeSSTable(d.dir, name, &live, slotLo, slotHi, d.cache)
			if err != nil {
				return err
			}
			merged = t
			if fi, err := t.f.Stat(); err == nil {
				mCompactionBytes.Add(fi.Size())
			}
		}
		mCompactionTables.Add(int64(len(run)))
		for _, t := range run {
			d.retire(t)
		}
		next := make([]*ssTable, 0, len(d.tables)-len(run)+1)
		next = append(next, d.tables[:lo]...)
		if merged != nil {
			next = append(next, merged)
		}
		next = append(next, d.tables[hi:]...)
		d.tables = next
		// Tombstones inside the merged range are materialized now — the
		// rewrite dropped those records from disk.
		for si := range d.dead {
			if si >= slotLo && si < slotHi {
				delete(d.dead, si)
			}
		}
	}
	if acted {
		mCompactions.Inc()
	}
	return nil
}

// retire closes a superseded table (evicting its cached blocks) and
// queues it for the obsolete-file GC. The file itself stays on disk:
// the live manifest may still reference it, and recovery must be able
// to reopen it until a newer manifest commits without it.
func (d *Disk) retire(t *ssTable) {
	t.close()
	d.obsolete = append(d.obsolete, t)
}

// Obsolete returns the names of files superseded by compaction since
// the last checkpoint; the checkpoint unlinks them (DropObsolete) once
// the new manifest no longer references them.
func (d *Disk) Obsolete() []string {
	names := make([]string, 0, len(d.obsolete))
	for _, t := range d.obsolete {
		names = append(names, t.name)
	}
	return names
}

// DropObsolete unlinks superseded files — the GC policy's only delete
// path. A file survives the sweep if the just-committed manifest still
// references it (referenced, by name) or an in-flight read still pins
// the table; survivors stay queued for the next checkpoint. Under the
// content-lock discipline neither guard should ever fire (compaction
// and checkpoints exclude readers), but an unlink is unrecoverable, so
// the policy is enforced here rather than assumed.
func (d *Disk) DropObsolete(referenced map[string]bool) {
	kept := d.obsolete[:0]
	for _, t := range d.obsolete {
		if referenced[t.name] || t.pins.Load() != 0 {
			kept = append(kept, t)
			continue
		}
		os.Remove(filepath.Join(d.dir, t.name))
	}
	d.obsolete = kept
}

// BloomNegatives returns how many key probes the bloom filters answered
// without any file I/O.
func (d *Disk) BloomNegatives() uint64 { return atomic.LoadUint64(&d.bloomNegSkipped) }

// TableCount returns the number of SSTable files currently serving
// reads.
func (d *Disk) TableCount() int { return len(d.tables) }

// Close releases the open table files. A store with tables is unusable
// afterwards.
func (d *Disk) Close() error {
	var err error
	for _, t := range d.tables {
		if cerr := t.close(); err == nil {
			err = cerr
		}
	}
	d.tables = nil
	return err
}
