package relation

import (
	"fmt"
	"sync"
	"sync/atomic"

	"pascalr/internal/sched"
	"pascalr/internal/schema"
	"pascalr/internal/stats"
	"pascalr/internal/storage"
	"pascalr/internal/value"
)

// DB bundles a catalog with the relation variables it declares. It is
// the database instance the query processor runs against.
//
// # Locking discipline
//
// Two locks protect a database against concurrent use:
//
//   - mu, the content lock, is a database-wide RWMutex shared by every
//     relation of the DB. Every mutator (Create, DefineType, and the
//     relation mutators Insert, Delete, Assign, CreateIndex) takes it
//     exclusively through one helper, write, which applies and logs
//     under it and waits for the WAL fsync after releasing it — no
//     reader ever waits out an fsync. Public read paths (Scan, Lookup,
//     Get, Deref) take it shared per call. The query engine instead
//     holds it shared across a whole collection phase (RLock/RUnlock)
//     and uses the non-locking snapshot accessors (ScanBatches,
//     SlotSpan, Relation.DerefInto), so one read acquisition covers every
//     scan and permanent-index probe of an execution — including
//     probes into relations other than the one being scanned. Code
//     running under the engine's phase lock must never call the locking
//     accessors: recursive RLock can deadlock against a queued writer.
//
//   - catMu guards the registration maps (name -> relation, id ->
//     relation) against relation declarations. It nests inside mu
//     (readers holding mu may take catMu; no path holds catMu while
//     acquiring mu), so lookups are safe both under the phase lock and
//     on their own.
//
// Once a WAL append or fsync fails, the database fails stop (see Err):
// write refuses every mutation, and every content read — the locking
// accessors and the snapshot accessors alike — returns the same error.
//
// Mutators update the counters below under the content write lock, but
// each has a reader that takes no lock, so they are atomics: Version
// (compiled plans and cursors compare it to validate snapshots), the
// statistics epoch (Estimator's cache check), and each relation's live
// count (Relation.Len, also called under the engine's phase lock, where
// the locking accessors would deadlock) and mutation counter
// (Relation.MutCount).
type DB struct {
	mu sync.RWMutex // content lock, shared with all relations

	catMu  sync.RWMutex // guards cat growth, rels, byID, nextID
	cat    *schema.Catalog
	rels   map[string]*Relation
	byID   []*Relation
	nextID int

	st *stats.Counters
	// version counts content mutations (insert, delete, assign) across
	// all relations of this database. Compiled plans compare it to
	// decide whether they are stale. Schema growth (new types, new empty
	// relations) does not bump it: existing plans cannot reference
	// objects that did not exist when they were compiled. Statistics are
	// NOT keyed by it — they use per-relation mutation counters, so an
	// insert into one relation leaves every other relation's cached
	// statistics valid.
	version atomic.Uint64

	// estMu guards the per-relation statistics snapshots handed to
	// planners: immutable copies of each relation's live statistics,
	// tagged with the relation's mutation counter and refreshed lazily
	// only for relations that actually mutated. statsEpoch counts
	// statistics changes database-wide (mutations and rebuilds); while
	// it holds still, Estimator() returns the one cached assembly
	// (estCache) without allocating.
	estMu      sync.Mutex
	estSnaps   map[string]estSnap
	estCache   *stats.Estimator
	estEpoch   uint64
	statsEpoch atomic.Uint64

	// async runs drift-triggered histogram rebuilds (and, for durable
	// databases, checkpoints and compactions) in the background,
	// single-flight per key.
	async *sched.Async
	// closed marks the database as shut down: no further background
	// statistics work may be scheduled. Mutators and readers keep
	// working — Close quiesces maintenance, it does not tear down
	// storage — but a drift trigger after Close must not resurrect a
	// background goroutine the shutdown already waited for.
	closed atomic.Bool

	// dur is the durability state (WAL, checkpoint orchestration) of a
	// database opened with OpenDB; nil for in-memory databases, which
	// then skip all logging.
	dur *durable
	// replaying is set while OpenDB replays the WAL: logging and
	// background maintenance are suppressed, so replay is deterministic
	// and writes nothing.
	replaying atomic.Bool
}

// estSnap is one relation's immutable statistics snapshot, tagged with
// the mutation counter it was taken at.
type estSnap struct {
	mut uint64
	ts  *stats.TableStats
}

// NewDB returns an empty database with a fresh catalog.
func NewDB() *DB {
	return &DB{
		cat:      schema.NewCatalog(),
		rels:     make(map[string]*Relation),
		estSnaps: make(map[string]estSnap),
		async:    sched.NewAsync(1),
	}
}

// Close quiesces the database's background work for shutdown: it waits
// for in-flight drift-triggered histogram rebuilds (and checkpoints) to
// finish and rejects any maintenance scheduled from then on, so no
// background goroutine can outlive Close or touch the database during
// teardown. For an in-memory database the relations stay readable and
// writable (Close does not tear down storage). A durable database
// additionally takes a final checkpoint and closes its WAL and SSTable
// handles — the database must not be used afterwards. Close is
// idempotent and safe to call concurrently with mutators.
func (d *DB) Close() error {
	first := d.closed.CompareAndSwap(false, true)
	d.async.Close()
	if d.dur == nil || !first {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	err := d.checkpointLocked()
	if d.dur.wal != nil {
		if cerr := d.dur.wal.Close(); err == nil {
			err = cerr
		}
	}
	d.catMu.RLock()
	rels := append([]*Relation(nil), d.byID...)
	d.catMu.RUnlock()
	for _, r := range rels {
		if cerr := r.store.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = d.Err()
	}
	return err
}

// Quiesce blocks until the background maintenance scheduled so far —
// checkpoints, compactions, drift-triggered histogram rebuilds — has
// drained, without shutting the executor down. Useful before treating
// the database directory as an on-disk snapshot (backups, crash-image
// tests); unlike Close it takes no checkpoint and the database remains
// fully usable.
func (d *DB) Quiesce() { d.async.Wait() }

// Catalog returns the database's catalog. The catalog itself is not
// synchronized: callers interleaving declarations with reads (parsing,
// checking) must serialize them, as the public pascalr API does.
func (d *DB) Catalog() *schema.Catalog { return d.cat }

// RLock acquires the database content lock shared, for a consistent
// multi-relation read phase (the engine's collection phase). Content
// mutators block until RUnlock. Calls must not nest: code holding it
// must not call the locking accessors (Stats, and Relation's Scan,
// Tuples, Refs, Get, Lookup and Deref). Safe under it are the atomic
// reads (Version, Err, Relation.Len, Relation.MutCount), the catalog
// lookups (Relation, Relations, ByID), the snapshot accessors (Deref,
// and Relation's ScanBatches, SlotSpan, DerefInto and Index) and
// Estimator.
func (d *DB) RLock() { d.mu.RLock() }

// RUnlock releases the shared content lock.
func (d *DB) RUnlock() { d.mu.RUnlock() }

// Create declares a relation variable for the given schema and registers
// it in the catalog. On a durable database the relation's slots live in
// the SSTable-backed disk tier and the declaration is logged.
func (d *DB) Create(sch *schema.RelSchema) (*Relation, error) {
	var r *Relation
	err := d.write(nil, func() (storage.Record, bool, error) {
		d.catMu.Lock()
		defer d.catMu.Unlock()
		if err := d.cat.DefineRelation(sch); err != nil {
			return storage.Record{}, false, err
		}
		store := storage.NewMemory()
		if d.dur != nil {
			store = storage.NewDisk(d.dur.dir, d.nextID, d.dur.opts, d.dur.cache)
		}
		r = newRelation(sch, d.nextID, store)
		d.attach(r)
		return storage.Record{Op: storage.OpCreateRel, Schema: sch}, true, nil
	})
	return r, err
}

// write is the one write path: Create, DefineType, and the relation
// mutators Insert, Delete, Assign and CreateIndex all run through it.
// Under the content write lock it refuses with the sticky durability
// error, runs apply, and logs the record apply returns if apply
// changed something. With the lock released it then waits for the
// fsync covering that record, so concurrent writers' records coalesce
// into one group commit (see storage.WAL) while readers and other
// writers proceed. A refused apply logs nothing; a failed append or
// fsync becomes the sticky error. r is the mutated relation (nil for
// DDL).
func (d *DB) write(r *Relation, apply func() (rec storage.Record, changed bool, err error)) error {
	d.mu.Lock()
	err := d.Err()
	var tk storage.Ticket
	if err == nil {
		var rec storage.Record
		var changed bool
		if rec, changed, err = apply(); err == nil && changed {
			tk, err = d.logRecord(r, rec)
		}
	}
	d.mu.Unlock()
	if err != nil || tk == 0 {
		return err
	}
	if err := d.dur.wal.WaitDurable(tk); err != nil {
		d.dur.setSticky(err)
		return err
	}
	return nil
}

// attach wires a freshly built relation into the database: owner,
// statistics, registration maps. Callers hold mu and catMu exclusively.
func (d *DB) attach(r *Relation) {
	r.st = d.st
	if r.stTable == nil {
		cols := make([]string, len(r.sch.Cols))
		for i, c := range r.sch.Cols {
			cols[i] = c.Name
		}
		r.stTable = stats.NewTableStats(r.sch.Name, cols)
	}
	r.owner = d
	d.nextID++
	d.rels[r.sch.Name] = r
	d.byID = append(d.byID, r)
	// A new relation must show up in the next Estimator() assembly.
	d.statsEpoch.Add(1)
}

// DefineType registers a named type, logging the declaration on a
// durable database so replay reconstructs the catalog. The unlogged
// Catalog().DefineType path remains for in-memory use; durable callers
// must come through here.
func (d *DB) DefineType(t *schema.Type) error {
	return d.write(nil, func() (storage.Record, bool, error) {
		return storage.Record{Op: storage.OpDefineType, Type: t}, true, d.cat.DefineType(t)
	})
}

// MustCreate is Create that panics on error, for tests and generators.
func (d *DB) MustCreate(sch *schema.RelSchema) *Relation {
	r, err := d.Create(sch)
	if err != nil {
		panic(err)
	}
	return r
}

// Relations returns a snapshot of the registered relation variables in
// creation order. Unlike Catalog().Relations(), it is safe against a
// concurrent Create (the catalog itself is unsynchronized).
func (d *DB) Relations() []*Relation {
	d.catMu.RLock()
	defer d.catMu.RUnlock()
	return append([]*Relation(nil), d.byID...)
}

// Relation returns the named relation variable.
func (d *DB) Relation(name string) (*Relation, bool) {
	d.catMu.RLock()
	r, ok := d.rels[name]
	d.catMu.RUnlock()
	return r, ok
}

// MustRelation returns the named relation variable or panics.
func (d *DB) MustRelation(name string) *Relation {
	r, ok := d.Relation(name)
	if !ok {
		panic(fmt.Sprintf("relation: no relation %s", name))
	}
	return r
}

// ByID returns the relation with the given catalog id, as stored in
// reference values.
func (d *DB) ByID(id int) (*Relation, bool) {
	d.catMu.RLock()
	defer d.catMu.RUnlock()
	if id < 0 || id >= len(d.byID) {
		return nil, false
	}
	return d.byID[id], true
}

// Deref dereferences a reference value against whichever relation owns
// it; the tuple belongs to the caller. It does not take the content
// lock: callers synchronizing against writers hold RLock around it. A
// fail-stopped database returns its sticky error (see Err).
func (d *DB) Deref(ref value.Value) ([]value.Value, error) {
	id, _, _ := ref.AsRef()
	r, ok := d.ByID(id)
	if !ok {
		return nil, fmt.Errorf("relation: reference to unknown relation id %d", id)
	}
	return r.DerefInto(ref, nil)
}

// SetStats attaches a counter sink to the database and all its
// relations. Refs and Tuples count into it, and baseline.Eval reads it
// through Stats; engine executions and Scan callers pass explicit
// sinks instead.
func (d *DB) SetStats(st *stats.Counters) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.catMu.RLock()
	defer d.catMu.RUnlock()
	d.st = st
	for _, r := range d.rels {
		r.st = st
	}
}

// Stats returns the currently attached counter sink (may be nil).
func (d *DB) Stats() *stats.Counters {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.st
}

// Version returns the database's content version: a counter bumped by
// every successful insert, delete, and assignment against any relation
// of this database. Two equal versions guarantee unchanged contents, so
// compiled plans and cached statistics tagged with a version can be
// reused without revalidation while it holds still. Version is an
// atomic read, safe without any lock; reading it while holding RLock
// pins it (writers are blocked), which is how the engine validates
// snapshots.
func (d *DB) Version() uint64 { return d.version.Load() }

func (d *DB) bumpVersion() { d.version.Add(1) }

// Estimator returns a selectivity estimator over the database's live
// statistics. Each relation contributes an immutable snapshot tagged
// with its own mutation counter: only relations that mutated since the
// previous call are re-snapshotted, so an insert into one relation no
// longer discards the statistics of every other. The returned estimator
// needs no locks and no analyze pass — the statistics are maintained
// incrementally by the mutators — making it safe to consult at compile
// time, outside any database lock.
func (d *DB) Estimator() *stats.Estimator {
	// Load the epoch before assembling: a statistics change racing the
	// assembly at worst leaves a stale-tagged cache that the next call
	// refreshes, never a fresh-tagged stale one.
	epoch := d.statsEpoch.Load()
	rels := d.Relations()
	d.estMu.Lock()
	defer d.estMu.Unlock()
	if d.estCache != nil && d.estEpoch == epoch {
		return d.estCache
	}
	est := stats.NewEstimator()
	for _, r := range rels {
		// Read the counter before snapshotting: a concurrent mutation
		// between the two at worst re-snapshots next call, never tags a
		// stale snapshot as fresh.
		mut := r.MutCount()
		snap, ok := d.estSnaps[r.sch.Name]
		if !ok || snap.mut != mut {
			snap = estSnap{mut: mut, ts: r.stTable.Snapshot()}
			d.estSnaps[r.sch.Name] = snap
		}
		est.AddTable(snap.ts)
	}
	d.estCache, d.estEpoch = est, epoch
	return est
}

// scheduleStatsRebuild queues a background re-bucketing of one
// relation's histograms (single-flight per relation). Called by
// mutators under the content write lock; the rebuild itself runs later
// under the content read lock, and only while the statistics are still
// drifted — a rerun queued behind a rebuild that already repaired them
// returns at once. After Close the submission is rejected (by the flag
// here and, authoritatively, by the closed executor), so a drift
// trigger racing shutdown cannot schedule work the shutdown will not
// wait for.
func (d *DB) scheduleStatsRebuild(r *Relation) {
	if d.closed.Load() || d.replaying.Load() {
		return
	}
	d.async.Submit("stats:"+r.sch.Name, func() {
		d.mu.RLock()
		defer d.mu.RUnlock()
		if r.stTable.Drifted() {
			r.rebuildStatsLocked()
		}
	})
}
