package storage

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"pascalr/internal/colbatch"
	"pascalr/internal/value"
)

// memEntry is one memtable slot: slot index memBase+position.
type memEntry struct {
	enc   string
	tuple []value.Value
	live  bool
}

// Disk is the LSM-ish backend: appends land in a slot-ordered in-memory
// memtable; when it fills, the live entries flush to an immutable
// SSTable file covering the memtable's slot range. Tables therefore
// have disjoint, ascending slot ranges, and the merging read path is a
// walk over tables-then-memtable in range order — exactly the
// slot-ordered scan the engine consumes, bit-identical to the memory
// backend's.
//
// Deletes of table-resident slots land in the dead set (tombstones);
// the := assignment raises resetFloor instead (every slot below it is
// dead), so neither touches the immutable files. Compaction rewrites
// tables dropping dead and below-floor records; superseded files move
// to the obsolete list and are unlinked only after the next checkpoint
// manifest stops referencing them.
//
// Like every backend, Disk is unsynchronized: the relation layer's
// content lock serializes access (compaction runs under an exclusive
// section scheduled on the database's async executor).
type Disk struct {
	dir   string
	relID int
	opts  Options

	tables     []*ssTable   // ascending, disjoint slot ranges
	dead       map[int]bool // table-resident tombstones
	resetFloor int          // every slot < resetFloor is dead

	mem      []memEntry
	memBase  int
	memByKey map[string]int // encoded key -> memtable position (newest)

	memLive   int // live entries in the memtable
	tableLive int // live (non-dead, above-floor) records in tables

	nextGen  int        // SSTable file-name generation counter
	obsolete []*ssTable // closed tables superseded since the last checkpoint

	cache *BlockCache // shared per-database block cache, nil when disabled

	// Measured access latencies (EWMA nanoseconds), for observability
	// and the cost model's learned per-backend profile. Sampled, not
	// exhaustive: one timing per scan, one per sampled probe.
	scanTupleNanos  atomicEWMA
	probeNanos      atomicEWMA
	probeCount      uint64
	bloomNegSkipped uint64 // probes answered "absent" by filters alone

	// cacheHitRate tracks the block-cache hit fraction of this
	// relation's point reads (1.0 per hit, 0.0 per miss) — the signal
	// that turns the static probe cost into a learned one (Costs).
	cacheHitRate atomicRate
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

// NewDisk creates an empty disk backend writing its files into dir.
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

// OpenDisk reconstitutes a disk backend from checkpoint metadata,
// opening the listed SSTable files (loading their bloom filters and
// sparse indexes).
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

// SlotSpan implements Backend.
func (d *Disk) SlotSpan() int { return d.memBase + len(d.mem) }

// Get implements Backend.
func (d *Disk) Get(si int) ([]value.Value, bool, error) {
	if si < 0 || si >= d.SlotSpan() {
		return nil, false, nil
	}
	if si >= d.memBase {
		e := &d.mem[si-d.memBase]
		if !e.live {
			return nil, false, nil
		}
		return e.tuple, true, nil
	}
	if si < d.resetFloor || d.dead[si] {
		return nil, false, nil
	}
	t := d.tableFor(si)
	if t == nil {
		return nil, false, nil
	}
	mSSTableReads.Inc()
	tuple, ok, hit, err := t.get(si)
	d.observeCache(hit)
	return tuple, ok, err
}

// observeCache feeds one point read's cache outcome into the hit-rate
// EWMA behind the learned probe cost.
func (d *Disk) observeCache(hit bool) {
	if d.cache == nil {
		return
	}
	if hit {
		d.cacheHitRate.observe(1)
	} else {
		d.cacheHitRate.observe(0)
	}
}

// tableFor returns the table whose range covers si, or nil.
func (d *Disk) tableFor(si int) *ssTable {
	i := sort.Search(len(d.tables), func(i int) bool { return d.tables[i].hi > si })
	if i < len(d.tables) && d.tables[i].lo <= si {
		return d.tables[i]
	}
	return nil
}

// Scan implements Backend: tables in range order, then the memtable —
// ascending slot order throughout. Table-resident rows are materialized
// a block at a time.
func (d *Disk) Scan(lo, hi int, fn func(si int, tuple []value.Value) bool) error {
	lo, hi = d.clampScan(lo, hi)
	if lo >= hi {
		return nil
	}
	start := time.Now()
	visited := 0
	defer func() { d.observeScan(start, visited) }()
	var sc blockScanner
	hasDead := len(d.dead) > 0
	for _, t := range d.tables {
		if t.hi <= lo {
			continue
		}
		if t.lo >= hi {
			break
		}
		mSSTableReads.Inc()
		keep, err := t.scanBlocks(&sc, lo, hi, func(v *blockView, r, end int) (bool, error) {
			flat, err := v.tuples(r, end)
			if err != nil {
				return false, err
			}
			n := len(v.kinds)
			for j := r; j < end; j++ {
				si := v.slot(j)
				if hasDead && d.dead[si] {
					continue
				}
				visited++
				if row := flat[(j-r)*n:]; !fn(si, row[:n:n]) {
					return false, nil
				}
			}
			return true, nil
		})
		if err != nil || !keep {
			return err
		}
	}
	for i := range d.mem {
		si := d.memBase + i
		if si >= hi {
			break
		}
		if si < lo || !d.mem[i].live {
			continue
		}
		visited++
		if !fn(si, d.mem[i].tuple) {
			return nil
		}
	}
	return nil
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

// observeScan feeds one scan's per-tuple latency into the EWMA behind
// MeasuredCosts.
func (d *Disk) observeScan(start time.Time, visited int) {
	if visited > 0 {
		d.scanTupleNanos.observe(float64(time.Since(start).Nanoseconds()) / float64(visited))
	}
}

// ScanBatchesInto implements Backend. SSTable-resident rows fill the
// batch straight from their blocks: the directory gives the blocks of
// [lo, hi), each is read into one reused buffer and checksummed once,
// and only the requested columns are decoded, one loop per column over
// a run of rows (a whole block, unless a shard bound, a tombstone or the
// batch's capacity cuts it). Tombstones are looked up only while the
// relation has any. Memtable-resident rows get the memory backend's
// blocked columnar fill — gather a window of live slots, then one tight
// loop per column over resolved row blocks. Flush/batch semantics match
// Memory.ScanBatchesInto.
func (d *Disk) ScanBatchesInto(lo, hi int, cols []int, b *colbatch.Batch, flush func() error) error {
	lo, hi = d.clampScan(lo, hi)
	if cols == nil {
		cols = make([]int, b.NumCols())
		for c := range cols {
			cols[c] = c
		}
	}
	start := time.Now()
	visited := 0
	defer func() { d.observeScan(start, visited) }()

	// Phase 1: table-resident rows, one decode per column per run.
	var sc blockScanner
	fill := func(v *blockView, r, end int) (bool, error) {
		for r < end {
			run := end // rows [r, run) are live
			if len(d.dead) > 0 {
				for r < end && d.dead[v.slot(r)] {
					r++
				}
				for run = r; run < end && !d.dead[v.slot(run)]; run++ {
				}
			}
			for r < run {
				k := min(run-r, b.Cap()-b.Len())
				if err := v.fill(b, cols, r, k); err != nil {
					return false, err
				}
				visited += k
				r += k
				if b.Full() {
					if err := flush(); err != nil {
						return false, err
					}
				}
			}
		}
		return true, nil
	}
	for _, t := range d.tables {
		if t.hi <= lo {
			continue
		}
		if t.lo >= hi {
			break
		}
		mSSTableReads.Inc()
		if _, err := t.scanBlocks(&sc, lo, hi, fill); err != nil {
			return err
		}
	}

	// Phase 2: memtable-resident rows, blocked columnar fill.
	mlo := lo
	if mlo < d.memBase {
		mlo = d.memBase
	}
	ordDsts := make([]ordDst, 0, 8)
	valDsts := make([]valDst, 0, 8)
	var tbuf [fillBlock][]value.Value
	for si := mlo; si < hi; {
		winStart := b.Len()
		for ; si < hi && !b.Full(); si++ {
			if d.mem[si-d.memBase].live {
				b.AppendSlot(si)
			}
		}
		if n := b.Len() - winStart; n > 0 {
			visited += n
			window := b.Slots()[winStart:]
			ordDsts, valDsts = ordDsts[:0], valDsts[:0]
			add := func(c int) {
				if b.IsOrd(c) {
					ordDsts = append(ordDsts, ordDst{b.GrowOrds(c, n), c})
				} else {
					valDsts = append(valDsts, valDst{b.GrowVals(c, n), c})
				}
			}
			for _, c := range cols {
				add(c)
			}
			for base := 0; base < n; base += fillBlock {
				k := n - base
				if k > fillBlock {
					k = fillBlock
				}
				rows := tbuf[:k]
				for j, s := range window[base : base+k] {
					rows[j] = d.mem[int(s)-d.memBase].tuple
				}
				for _, dst := range ordDsts {
					span := dst.span[base : base+k]
					for j, t := range rows {
						span[j] = t[dst.c].Ord()
					}
				}
				for _, dst := range valDsts {
					span := dst.span[base : base+k]
					for j, t := range rows {
						span[j] = t[dst.c]
					}
				}
			}
		}
		if b.Full() {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if b.Len() > 0 {
		return flush()
	}
	return nil
}

// LookupKey implements Backend: memtable first (its key map tracks the
// newest entry per key, dead entries masking older table occurrences),
// then tables newest-first — the first table containing the key decides,
// because a key can only be re-inserted after a delete, and that delete
// tombstoned every older occurrence.
func (d *Disk) LookupKey(enc string) (int, bool) {
	if i, ok := d.memByKey[enc]; ok {
		if !d.mem[i].live {
			return 0, false
		}
		return d.memBase + i, true
	}
	sampled := atomic.AddUint64(&d.probeCount, 1)%16 == 0
	var start time.Time
	if sampled {
		start = time.Now()
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
		si, ok, hit, err := t.lookupKey(enc)
		d.observeCache(hit)
		if err != nil {
			// A probe has no error channel (the relation layer's Lookup
			// contract predates I/O): treat unreadable as absent. Scans
			// surface the corruption with a real error.
			return 0, false
		}
		if ok {
			if sampled {
				d.probeNanos.observe(float64(time.Since(start).Nanoseconds()))
			}
			if si < d.resetFloor || d.dead[si] {
				return 0, false
			}
			return si, true
		}
	}
	if sampled {
		d.probeNanos.observe(float64(time.Since(start).Nanoseconds()))
	}
	return 0, false
}

// Append implements Backend, flushing the memtable to an SSTable when
// it reaches the configured entry budget.
func (d *Disk) Append(enc string, tuple []value.Value) (int, error) {
	prev, hadPrev := d.memByKey[enc]
	d.mem = append(d.mem, memEntry{enc: enc, tuple: tuple, live: true})
	i := len(d.mem) - 1
	d.memByKey[enc] = i
	d.memLive++
	si := d.memBase + i
	if len(d.mem) >= d.opts.MemtableEntries {
		if err := d.Flush(); err != nil {
			// The caller treats the append as failed and publishes
			// nothing (no live count, no index entries), so the entry
			// must not stay visible here either: roll the memtable back
			// to its pre-append state (a failed Flush mutated nothing).
			d.mem = d.mem[:i]
			if hadPrev {
				d.memByKey[enc] = prev
			} else {
				delete(d.memByKey, enc)
			}
			d.memLive--
			return 0, err
		}
	}
	return si, nil
}

// Delete implements Backend.
func (d *Disk) Delete(si int, enc string) error {
	if si >= d.memBase {
		i := si - d.memBase
		if i < len(d.mem) && d.mem[i].live {
			d.mem[i].live = false
			d.mem[i].tuple = nil
			d.memLive--
			// The key map entry stays as a tombstone: it masks any older
			// table-resident occurrence of the same key.
		}
		return nil
	}
	if si >= d.resetFloor && !d.dead[si] {
		d.dead[si] = true
		d.tableLive--
	}
	return nil
}

// Reset implements Backend: raise the floor instead of touching the
// immutable files; compaction reclaims the space later.
func (d *Disk) Reset() error {
	d.resetFloor = d.SlotSpan()
	for i := range d.mem {
		if d.mem[i].live {
			d.mem[i].live = false
			d.mem[i].tuple = nil
		}
	}
	d.memLive = 0
	d.tableLive = 0
	d.dead = make(map[int]bool)
	return nil
}

// Flush spills the memtable's live entries to a new SSTable covering
// the memtable's slot range and advances the base. A memtable with no
// live entries advances the base without writing a file. Idempotent
// per fill: replaying the same appends re-flushes at the same point
// with the same contents.
func (d *Disk) Flush() error {
	n := len(d.mem)
	if n == 0 {
		return nil
	}
	var entries []SSEntry
	for i := range d.mem {
		if d.mem[i].live {
			entries = append(entries, SSEntry{Si: d.memBase + i, Enc: d.mem[i].enc, Tuple: d.mem[i].tuple})
		}
	}
	if len(entries) > 0 {
		name := fmt.Sprintf("r%d-g%d.sst", d.relID, d.nextGen)
		d.nextGen++
		t, err := writeSSTable(d.dir, name, entries, d.memBase, d.memBase+n, d.cache)
		if err != nil {
			return err
		}
		d.tables = append(d.tables, t)
		d.tableLive += len(entries)
		mMemtableSpills.Inc()
	}
	d.memBase += n
	d.mem = nil
	d.memByKey = make(map[string]int)
	d.memLive = 0
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
		var entries []SSEntry
		var sc blockScanner
		for _, t := range run {
			_, err := t.scanBlocks(&sc, max(t.lo, d.resetFloor), t.hi, func(v *blockView, r, end int) (bool, error) {
				flat, err := v.tuples(r, end)
				if err != nil {
					return false, err
				}
				keys, err := v.keys(r, end)
				if err != nil {
					return false, err
				}
				n := len(v.kinds)
				for j := r; j < end; j++ {
					if si := v.slot(j); !d.dead[si] {
						row := flat[(j-r)*n:]
						entries = append(entries, SSEntry{Si: si, Enc: keys[j-r], Tuple: row[:n:n]})
					}
				}
				return true, nil
			})
			if err != nil {
				return err
			}
		}
		var merged *ssTable
		if len(entries) > 0 {
			name := fmt.Sprintf("r%d-g%d.sst", d.relID, d.nextGen)
			d.nextGen++
			t, err := writeSSTable(d.dir, name, entries, slotLo, slotHi, d.cache)
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

// Costs implements Backend. ScanTuple stays the static disk estimate
// (scans bypass the block cache by design), but Probe is learned: it
// blends the cold probe cost toward the in-memory cost by the measured
// block-cache hit rate, so the estimator's memory-vs-disk pricing
// tracks what probes actually pay. Plan shape never reads this (see
// CostProfile); only shard balancing and the estimator's cost totals
// do, both counter-invisible.
func (d *Disk) Costs() CostProfile {
	c := diskCosts
	if rate, ok := d.cacheHitRate.load(); ok {
		// A warm probe still pays bloom checks and segment decoding on
		// top of the memory backend's map hit.
		const warmProbe = 2
		c.Probe = rate*warmProbe + (1-rate)*diskCosts.Probe
	}
	return c
}

// CacheHitRate returns the EWMA block-cache hit fraction of this
// relation's point reads, and whether any read has been observed.
func (d *Disk) CacheHitRate() (float64, bool) { return d.cacheHitRate.load() }

// MeasuredCosts returns the observed per-tuple scan and per-probe
// latencies in nanoseconds (0 until observed) — the learned complement
// to the static profile, surfaced through statistics for monitoring.
func (d *Disk) MeasuredCosts() (scanTupleNs, probeNs float64) {
	return d.scanTupleNanos.load(), d.probeNanos.load()
}

// BloomNegatives returns how many key probes the bloom filters answered
// without any file I/O.
func (d *Disk) BloomNegatives() uint64 { return atomic.LoadUint64(&d.bloomNegSkipped) }

// TableCount returns the number of SSTable files currently serving
// reads.
func (d *Disk) TableCount() int { return len(d.tables) }

// Close implements Backend.
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

// atomicEWMA is a lock-free exponentially weighted moving average
// (alpha 1/8), readable concurrently with single-writer updates.
type atomicEWMA struct{ bits atomic.Uint64 }

func (e *atomicEWMA) observe(v float64) {
	old := e.load()
	if old == 0 {
		e.store(v)
		return
	}
	e.store(old + (v-old)/8)
}

func (e *atomicEWMA) load() float64 {
	return math.Float64frombits(e.bits.Load())
}

func (e *atomicEWMA) store(v float64) { e.bits.Store(math.Float64bits(v)) }

// atomicRate is an atomicEWMA whose observations legitimately include
// zero (a cache miss is 0.0), so "unset" needs its own flag instead of
// the zero value. Concurrent observers race benignly: each
// read-modify-write is atomic and a lost update only drops one sample
// from the average.
type atomicRate struct {
	bits   atomic.Uint64
	primed atomic.Bool
}

func (e *atomicRate) observe(v float64) {
	if e.primed.CompareAndSwap(false, true) {
		e.bits.Store(math.Float64bits(v))
		return
	}
	old := math.Float64frombits(e.bits.Load())
	e.bits.Store(math.Float64bits(old + (v-old)/8))
}

func (e *atomicRate) load() (float64, bool) {
	if !e.primed.Load() {
		return 0, false
	}
	return math.Float64frombits(e.bits.Load()), true
}
