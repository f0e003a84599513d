// Durable databases: OpenDB composes the storage package's pieces — a
// per-relation disk backend, the write-ahead log, and the checkpoint
// manifest — into a crash-recoverable DB.
//
// # Write path
//
// Every mutator (DDL included) runs through one helper, DB.write: under
// the content write lock it refuses with the sticky durability error,
// applies the mutation in memory, and appends its WAL record when the
// apply changed something; with the lock released it then waits for
// the fsync covering the record, so concurrent writers share one group
// commit. Logging after the apply means a crash between the two simply
// loses the not-yet-durable tail, and any SSTable a memtable flush
// wrote for unlogged appends is an orphan the next open removes before
// replay deterministically recreates it. A refused apply logs nothing.
// Assignments whose record would exceed the WAL's frame bound are
// logged as a chunk group that replay applies only when complete.
//
// A failed WAL append or covering fsync is sticky: the database fails
// stop. Every later mutation and checkpoint returns the error, and so
// does every content read (scans, point reads, dereferences): the
// mutation that hit the failure was already applied in memory, and
// recovery will not reproduce it, so nothing may read that state.
// Reopening the directory recovers the last durable state.
//
// # Recovery
//
// OpenDB loads the checkpoint manifest (schemas, SSTable metadata,
// permanent-index columns, serialized statistics), removes orphaned
// table files, and replays the WAL records with Seq beyond the
// manifest's LastSeq in log order through the ordinary mutators — with
// logging and background maintenance suppressed — so indexes,
// statistics, and memtable flush points all land exactly where the live
// run put them.
// The recovered state is bit-for-bit the last durable state: a record
// is either wholly applied or (torn tail, CRC mismatch) wholly
// dropped, never half-applied.
//
// # Checkpoints
//
// A checkpoint flushes every memtable, writes a fresh manifest
// (tmp+rename), truncates the WAL, and unlinks superseded files. The
// WAL-size trigger schedules it on the database's async executor,
// single-flight; Close takes a final one.
package relation

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"pascalr/internal/stats"
	"pascalr/internal/storage"
	"pascalr/internal/value"
)

// durable is the durability state of a database opened with OpenDB.
type durable struct {
	dir   string
	opts  storage.Options
	wal   *storage.WAL
	cache *storage.BlockCache // shared SSTable block cache (nil when disabled)
	seq   uint64              // last assigned log sequence number

	// err is the sticky durability failure: set when a WAL append or
	// its covering group-commit fsync fails, first failure wins. From
	// then on the database fails stop (see DB.Err). An atomic rather
	// than a field under the content lock: group-commit waiters record
	// fsync failures after releasing that lock, and every content read
	// checks it, Relation.DerefInto once per reference.
	err atomic.Pointer[error]
}

// setSticky records a durability failure; the first one wins.
func (du *durable) setSticky(err error) { du.err.CompareAndSwap(nil, &err) }

// Err returns the database's sticky durability error: nil until a WAL
// append or its covering fsync fails, and always nil for in-memory
// databases. From the first failure on the database fails stop: every
// mutation, checkpoint and content read returns this error, and Close
// surfaces it. One atomic load, safe without any lock.
func (d *DB) Err() error {
	if d.dur == nil {
		return nil
	}
	if p := d.dur.err.Load(); p != nil {
		return *p
	}
	return nil
}

// OpenDB opens (creating if needed) a durable database in dir and
// recovers it to its last durable state.
func OpenDB(dir string, opts storage.Options) (*DB, error) {
	opts = opts.Defaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m, haveManifest, err := storage.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	// Drop table files no manifest references: flushes that outran the
	// last checkpoint (replay recreates them) and crashed checkpoints.
	if err := storage.CleanOrphans(dir, m); err != nil {
		return nil, err
	}
	d := NewDB()
	d.dur = &durable{dir: dir, opts: opts, cache: storage.NewBlockCache(opts.BlockCacheBytes)}
	d.replaying.Store(true)
	defer d.replaying.Store(false)
	var lastSeq uint64
	var staleStats []int // relations whose checkpointed statistics were dropped
	if haveManifest {
		lastSeq = m.LastSeq
		d.dur.seq = m.LastSeq
		for _, t := range m.Types {
			if err := d.cat.DefineType(t); err != nil {
				return nil, d.openFailed(err)
			}
		}
		for id, rm := range m.Rels {
			rebuild, err := d.openRelFromManifest(id, rm)
			if err != nil {
				return nil, d.openFailed(err)
			}
			if rebuild {
				staleStats = append(staleStats, id)
			}
		}
	}
	wal, payloads, err := storage.RecoverWAL(dir, opts.Fsync)
	if err != nil {
		return nil, d.openFailed(err)
	}
	d.dur.wal = wal
	recs, maxSeq, err := assembleReplay(payloads, lastSeq)
	if err != nil {
		return nil, d.openFailed(err)
	}
	if maxSeq > d.dur.seq {
		// Advance past every decoded seq — including a trailing torn
		// chunk group's — so new appends never reuse a sequence number
		// still physically present in the log.
		d.dur.seq = maxSeq
	}
	for _, rec := range recs {
		if err := d.applyRecord(rec); err != nil {
			return nil, d.openFailed(fmt.Errorf("relation: WAL replay seq %d: %w", rec.Seq, err))
		}
	}
	// After replay, so the rebuilt statistics count the replayed rows.
	for _, id := range staleStats {
		if r, ok := d.ByID(id); ok {
			r.rebuildStatsLocked()
		}
	}
	return d, nil
}

// assembleReplay decodes the recovered WAL payloads into the records to
// replay: pre-checkpoint duplicates (Seq <= lastSeq) are dropped, and
// assignment chunk groups (storage.SplitRecord) are buffered until
// their final chunk arrives and assembled into one record. A group the
// log tears mid-way — every buffered chunk without its final one — is
// never applied.
func assembleReplay(payloads [][]byte, lastSeq uint64) (recs []storage.Record, maxSeq uint64, _ error) {
	pendRel := -1
	var pendTuples [][]value.Value
	for _, p := range payloads {
		rec, err := storage.DecodeRecord(p)
		if err != nil {
			return nil, 0, fmt.Errorf("relation: WAL replay: %w", err)
		}
		if rec.Seq > maxSeq {
			maxSeq = rec.Seq
		}
		if rec.Seq <= lastSeq {
			// The record predates the checkpoint: a crash between the
			// manifest rename and the WAL truncation left it behind.
			// LastSeq makes replay idempotent. A checkpoint cannot split
			// a chunk group (both run under the content write lock), so
			// a group is skipped or replayed in full.
			continue
		}
		if rec.Op == storage.OpAssign {
			if rec.Cont && (pendRel != rec.Rel || pendTuples == nil) {
				return nil, 0, fmt.Errorf("relation: WAL replay seq %d: orphan assignment chunk", rec.Seq)
			}
			if !rec.Cont {
				pendRel, pendTuples = rec.Rel, nil
			}
			pendTuples = append(pendTuples, rec.Tuples...)
			if rec.More {
				continue
			}
			rec.Tuples = pendTuples
		}
		// Any complete record ends the open group: chunks of one group
		// are contiguous, so a buffered prefix followed by anything else
		// is a stale torn group an earlier crash left behind.
		pendRel, pendTuples = -1, nil
		recs = append(recs, rec)
	}
	// A trailing incomplete group (crash mid-assignment) is dropped:
	// the assignment never becomes durable, though maxSeq still covers
	// its chunks' sequence numbers.
	return recs, maxSeq, nil
}

// openFailed releases whatever OpenDB had opened before failing.
func (d *DB) openFailed(err error) error {
	if d.dur.wal != nil {
		d.dur.wal.Close()
	}
	for _, r := range d.byID {
		r.store.Close()
	}
	return err
}

// openRelFromManifest reconstitutes one relation from its checkpointed
// state: disk backend, statistics, permanent indexes. Statistics are
// derived data, so a blob in another serialization version is dropped
// rather than failing the open: rebuild reports that the caller must
// rebuild them from the store once WAL replay is done.
func (d *DB) openRelFromManifest(id int, rm storage.RelManifest) (rebuild bool, _ error) {
	if err := d.cat.DefineRelation(rm.Schema); err != nil {
		return false, err
	}
	store, err := storage.OpenDisk(d.dur.dir, id, d.dur.opts, d.dur.cache, rm.Disk)
	if err != nil {
		return false, err
	}
	r := newRelation(rm.Schema, id, store)
	r.live.Store(int64(rm.Disk.Live))
	if len(rm.Stats) > 0 {
		ts, err := stats.Unmarshal(rm.Stats)
		switch {
		case err == nil:
			r.stTable = ts
		case errors.Is(err, stats.ErrVersion):
			rebuild = true
		default:
			store.Close()
			return false, fmt.Errorf("relation %s: checkpointed statistics: %w", rm.Schema.Name, err)
		}
	}
	d.catMu.Lock()
	if id != len(d.byID) {
		d.catMu.Unlock()
		store.Close()
		return false, fmt.Errorf("relation %s: manifest id %d out of order", rm.Schema.Name, id)
	}
	d.attach(r)
	d.catMu.Unlock()
	for _, col := range rm.Indexes {
		if _, err := r.CreateIndex(col); err != nil {
			return false, err
		}
	}
	return rebuild, nil
}

// applyRecord replays one WAL record through the ordinary mutators
// (logging is suppressed by the replaying flag). Replay is strict:
// every logged record was effective when written, so a record that
// fails or no-ops now means a corrupt or inconsistent log.
func (d *DB) applyRecord(rec storage.Record) error {
	switch rec.Op {
	case storage.OpDefineType:
		return d.DefineType(rec.Type)
	case storage.OpCreateRel:
		_, err := d.Create(rec.Schema)
		return err
	case storage.OpCreateIndex:
		r, ok := d.ByID(rec.Rel)
		if !ok {
			return fmt.Errorf("unknown relation id %d", rec.Rel)
		}
		_, err := r.CreateIndex(rec.Col)
		return err
	case storage.OpInsert:
		r, ok := d.ByID(rec.Rel)
		if !ok {
			return fmt.Errorf("unknown relation id %d", rec.Rel)
		}
		_, err := r.Insert(rec.Tuple)
		return err
	case storage.OpDelete:
		r, ok := d.ByID(rec.Rel)
		if !ok {
			return fmt.Errorf("unknown relation id %d", rec.Rel)
		}
		ok, err := r.Delete(rec.Key)
		if err != nil {
			return fmt.Errorf("delete: %w", err)
		}
		if !ok {
			return fmt.Errorf("logged delete of absent key in %s", r.sch.Name)
		}
		return nil
	case storage.OpAssign:
		r, ok := d.ByID(rec.Rel)
		if !ok {
			return fmt.Errorf("unknown relation id %d", rec.Rel)
		}
		return r.Assign(rec.Tuples)
	}
	return fmt.Errorf("unknown WAL op %d", rec.Op)
}

// logRecord appends one record to the WAL, assigning it the next log
// sequence number, and returns the group-commit ticket covering the
// append (zero when nothing needs waiting). Only DB.write calls it,
// under the content write lock, which also serializes the sequence
// counter; r is the mutated relation (nil for DDL, which touches none).
// In-memory databases and replay no-op. Once a sticky durability error
// is recorded, every further logRecord fails with it: a group-commit
// waiter can record one after write checked.
//
// Oversized assignments are split into a chunk group (storage.
// SplitRecord) appended contiguously under the lock; replay applies a
// group only when its final chunk is durable, so a crash mid-group
// drops the assignment wholly. The final chunk's ticket covers the
// whole group.
func (d *DB) logRecord(r *Relation, rec storage.Record) (storage.Ticket, error) {
	if d.dur == nil || d.replaying.Load() {
		return 0, nil
	}
	if err := d.Err(); err != nil {
		return 0, err
	}
	var tk storage.Ticket
	for _, rc := range storage.SplitRecord(rec) {
		d.dur.seq++
		rc.Seq = d.dur.seq
		payload, err := storage.EncodeRecord(rc)
		if err == nil {
			tk, err = d.dur.wal.Append(payload)
		}
		if err != nil {
			d.dur.setSticky(err)
			return 0, err
		}
	}
	d.maybeMaintain(r)
	return tk, nil
}

// maybeMaintain schedules background storage maintenance after a logged
// mutation: a checkpoint when the WAL outgrew its budget (bounding
// replay time), and a compaction when the mutated relation's disk tier
// would reclaim enough dead records. Both run on the database's async
// executor, single-flight per key, take the content write lock
// themselves, and re-check their trigger under it: a rerun queued
// behind a job that already did the work returns at once.
func (d *DB) maybeMaintain(r *Relation) {
	if d.closed.Load() {
		return
	}
	if t := d.dur.opts.CheckpointWALBytes; t > 0 && d.dur.wal.Size() >= t {
		d.async.Submit("checkpoint", func() {
			d.mu.Lock()
			defer d.mu.Unlock()
			if d.dur.wal.Size() >= t {
				d.checkpointLocked()
			}
		})
	}
	if r == nil {
		return
	}
	if r.store.NeedsCompaction() {
		d.async.Submit("compact:"+r.sch.Name, func() {
			d.mu.Lock()
			defer d.mu.Unlock()
			if r.store.NeedsCompaction() {
				r.store.Compact()
			}
		})
	}
}

// Checkpoint persists the database's complete current state — flushed
// memtables, a fresh manifest carrying schemas, SSTable metadata,
// index columns, and serialized statistics — then truncates the WAL
// and unlinks superseded table files. Recovery after a checkpoint
// replays only the records logged since. A no-op on in-memory
// databases. It refuses with the database's sticky durability error
// once one is recorded.
func (d *DB) Checkpoint() error {
	if d.dur == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.checkpointLocked()
}

func (d *DB) checkpointLocked() error {
	if d.dur == nil || d.dur.wal == nil {
		return nil
	}
	start := time.Now()
	defer func() { mCheckpointLatency.Observe(time.Since(start)) }()
	if err := d.Err(); err != nil {
		// A WAL append or fsync failed earlier: the in-memory state may
		// have drifted from the log. Checkpointing would persist that
		// drift as durable truth (and truncate the log) — refuse instead;
		// recovery from the intact WAL is the trustworthy state.
		return err
	}
	d.catMu.RLock()
	rels := append([]*Relation(nil), d.byID...)
	d.catMu.RUnlock()
	m := &storage.Manifest{LastSeq: d.dur.seq}
	for _, name := range d.cat.Types() {
		t, ok := d.cat.Type(name)
		if !ok {
			return fmt.Errorf("relation: checkpoint: type %s vanished", name)
		}
		m.Types = append(m.Types, t)
	}
	for _, r := range rels {
		if err := r.store.Flush(); err != nil {
			return err
		}
		blob, err := r.stTable.Marshal()
		if err != nil {
			return err
		}
		ixCols := make([]string, 0, len(r.colIndexes))
		for col := range r.colIndexes {
			ixCols = append(ixCols, col)
		}
		sort.Strings(ixCols)
		m.Rels = append(m.Rels, storage.RelManifest{
			Schema: r.sch, Disk: r.store.Meta(), Indexes: ixCols, Stats: blob,
		})
	}
	if err := storage.WriteManifest(d.dur.dir, m); err != nil {
		return err
	}
	// The durable manifest rename is the commit point: WriteManifest
	// returns only once the manifest (and, from their own writes, the
	// SSTables it references) survives power loss, so every logged
	// record is now redundant and the log can be truncated.
	if err := d.dur.wal.Reset(); err != nil {
		return err
	}
	// GC retired table files — but never one the manifest just made
	// durable truth (defense in depth: compaction retires tables before
	// the manifest drops them, so by construction none should appear) or
	// one an in-flight read still pins.
	referenced := make(map[string]bool)
	for _, rm := range m.Rels {
		for _, name := range rm.Disk.Tables {
			referenced[name] = true
		}
	}
	for _, r := range rels {
		r.store.DropObsolete(referenced)
	}
	return nil
}
