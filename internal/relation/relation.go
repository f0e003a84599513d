// Package relation implements PASCAL/R's relation variables: slotted
// tuple storage with stable element references (the paper's
// @rel[keyval] construct), a primary key index that backs selected
// variables rel[keyval], and the insert (:+), delete (:-), and assign
// (:=) operators.
//
// References are the central intermediate currency of the query
// processor: the collection phase compresses records to references, and
// the combination phase manipulates only reference relations. A
// reference stays valid until its element is deleted; dereferencing a
// stale reference is detected through the storage backend's append-only
// slot discipline (slots never revive, so a live slot is always at
// generation zero).
//
// Tuples live in a storage.Disk slot store: one with no directory
// (storage.NewMemory) by default, or one spilling to SSTables for
// durable databases (OpenDB). Relations created through DB.Create share
// the database's content RWMutex (see the locking discipline on DB):
// exported mutators and readers lock per call, while the snapshot
// accessors (ScanBatches, SlotSpan, deref via DB.Deref) rely on the
// caller holding the database read lock. Standalone relations (New)
// carry no lock and stay as cheap as before — the engine's
// per-execution result relations are built that way.
package relation

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"pascalr/internal/colbatch"
	"pascalr/internal/schema"
	"pascalr/internal/stats"
	"pascalr/internal/storage"
	"pascalr/internal/value"
)

// ErrStale marks a dereference of a reference whose element was deleted
// (or replaced by an assignment) after the reference was issued. Under
// concurrent writers a query's construction phase can observe it; the
// engine's materializing path retries against a fresh snapshot, while
// streaming cursors surface it to the caller.
var ErrStale = errors.New("stale reference")

// Relation is one relation variable: a set of identically structured
// elements with a declared key.
type Relation struct {
	sch   *schema.RelSchema
	id    int           // catalog id used inside reference values
	store *storage.Disk // slot storage (no directory by default)
	live  atomic.Int64

	colIndexes map[string]*ColIndex // permanent indexes, by component

	// batchKinds/batchEnums are the schema-derived per-column storage
	// classes handed to Batch.Configure on every batch scan: the value
	// kind of each column and, for enum columns, the enumeration type
	// name (needed to reconstruct boxed values from ordinals). Computed
	// once at construction — the schema is immutable — so concurrent
	// scans share them read-only.
	batchKinds []value.Kind
	batchEnums []string

	// onMutate, when set (by DB.Create), is called after every content
	// mutation — the hook behind DB.Version.
	onMutate func()

	// stTable is the incrementally maintained statistics of this
	// relation (histograms, distinct counts), fed by every
	// insert, delete, and assignment under the content write lock; nil
	// for standalone relations, which skip all statistics work. owner
	// points back at the database for drift-triggered background
	// rebuilds and write-ahead logging.
	stTable *stats.TableStats
	owner   *DB
	// mutCount counts this relation's content mutations — the
	// per-relation staleness key for statistics snapshots, so a mutation
	// of one relation invalidates only its own cached statistics.
	mutCount atomic.Uint64

	// lk is the owning database's content lock; nil for standalone
	// relations, which then skip all locking.
	lk *sync.RWMutex

	st *stats.Counters
}

// New creates an empty relation with the given schema and catalog id,
// backed by a slot store with no directory. The id must fit in 16 bits
// (it is packed into reference values).
func New(sch *schema.RelSchema, id int) *Relation {
	return newRelation(sch, id, storage.NewMemory())
}

// newRelation creates a relation over the given empty or checkpointed
// slot store.
func newRelation(sch *schema.RelSchema, id int, store *storage.Disk) *Relation {
	if id < 0 || id > 0xFFFF {
		panic(fmt.Sprintf("relation: id %d out of range", id))
	}
	kinds := make([]value.Kind, len(sch.Cols))
	enums := make([]string, len(sch.Cols))
	for i, c := range sch.Cols {
		kinds[i] = c.Type.ValueKind()
		if kinds[i] == value.KindEnum {
			enums[i] = c.Type.Name
		}
	}
	return &Relation{sch: sch, id: id, store: store,
		batchKinds: kinds, batchEnums: enums}
}

func (r *Relation) lock() {
	if r.lk != nil {
		r.lk.Lock()
	}
}

func (r *Relation) unlock() {
	if r.lk != nil {
		r.lk.Unlock()
	}
}

func (r *Relation) rlock() {
	if r.lk != nil {
		r.lk.RLock()
	}
}

func (r *Relation) runlock() {
	if r.lk != nil {
		r.lk.RUnlock()
	}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *schema.RelSchema { return r.sch }

// Name returns the relation's name.
func (r *Relation) Name() string { return r.sch.Name }

// ID returns the catalog id used in reference values.
func (r *Relation) ID() int { return r.id }

// Len returns the number of elements. It is an atomic read, safe
// without any lock (and in particular safe under the engine's phase
// lock, where the locking accessors would deadlock).
func (r *Relation) Len() int { return int(r.live.Load()) }

// SetStats attaches a counter sink; scans, reads, and permanent-index
// probes through the locking accessors are recorded there. A nil sink
// disables counting. Engine executions bypass the attached sink and
// pass their own.
func (r *Relation) SetStats(st *stats.Counters) {
	r.lock()
	defer r.unlock()
	r.setStats(st)
}

func (r *Relation) setStats(st *stats.Counters) {
	r.st = st
	for _, ix := range r.colIndexes {
		ix.st = st
	}
}

// Insert implements the :+ operator for a single element. Inserting an
// element whose key is present with identical non-key components is a
// no-op (relations are sets); a key collision with different components
// is an error. It returns the element's reference.
func (r *Relation) Insert(tuple []value.Value) (value.Value, error) {
	r.lock()
	if err := r.durableErr(); err != nil {
		r.unlock()
		return value.Value{}, err
	}
	ref, added, err := r.insert(tuple)
	var tk storage.Ticket
	if err == nil && added {
		tk, err = r.logMutation(storage.Record{Op: storage.OpInsert, Rel: r.id, Tuple: tuple})
	}
	r.unlock()
	// Group-commit rendezvous outside the lock: concurrent inserters'
	// frames coalesce into one fsync (see storage.WAL).
	if err == nil {
		err = r.waitDurable(tk)
	}
	return ref, err
}

// insert applies one insertion without logging; it reports whether the
// relation actually changed (false for the idempotent re-insert of an
// identical element).
func (r *Relation) insert(tuple []value.Value) (value.Value, bool, error) {
	if err := r.sch.CheckTuple(tuple); err != nil {
		return value.Value{}, false, err
	}
	k := r.sch.EncodeKeyOf(tuple)
	// The probe must not mistake an unreadable table for an absent key:
	// appending then would give an existing key a second live element.
	si, ok, err := r.store.ProbeKey(k)
	if err != nil {
		return value.Value{}, false, fmt.Errorf("relation %s: key probe: %w", r.sch.Name, err)
	}
	if ok {
		existing, _, err := r.store.Get(si)
		if err != nil {
			return value.Value{}, false, err
		}
		if tuplesEqual(existing, tuple) {
			return r.refOf(si), false, nil
		}
		return value.Value{}, false, fmt.Errorf("relation %s: key %s already present with different components",
			r.sch.Name, formatKey(r.sch, tuple))
	}
	si, err = r.store.Append(k, tuple)
	if err != nil {
		return value.Value{}, false, err
	}
	r.live.Add(1)
	ref := r.refOf(si)
	for _, ix := range r.colIndexes {
		ix.add(tuple[ix.colIdx], ref)
	}
	drifted := r.stTable.ObserveInsert(tuple)
	r.mutated(drifted)
	return ref, true, nil
}

// Delete implements the :- operator for a single element identified by
// its key values. It reports whether an element was removed. References
// to the removed element become stale.
//
// Unlike Insert and Assign, Delete logs before applying: its boolean
// signature has no error channel, so a WAL failure after the in-memory
// delete would acknowledge a mutation that recovery silently undoes.
// Logging first lets a durability failure refuse the delete outright —
// the element stays, the caller sees false, and the failure is recorded
// as the database's sticky durability error (failing every subsequent
// mutation and checkpoint until the database is reopened). The
// effectiveness check runs before logging, under the same write lock
// the apply runs under, so a logged delete is always effective —
// replay treats a logged delete of an absent key as corruption.
//
// For the same reason Delete waits for durability UNDER the write lock,
// before applying: releasing the lock first would let the delete fail
// after returning, and the boolean could not take it back. Deletes
// therefore don't coalesce into group commits — the price of a truthful
// boolean, and no worse than the old fsync-per-record behavior.
func (r *Relation) Delete(keyVals []value.Value) bool {
	r.lock()
	defer r.unlock()
	k := value.EncodeKey(keyVals)
	si, ok := r.store.LookupKey(k)
	if !ok {
		return false
	}
	if _, live, err := r.store.Get(si); err != nil || !live {
		return false
	}
	tk, err := r.logMutation(storage.Record{Op: storage.OpDelete, Rel: r.id, Key: keyVals})
	if err != nil || r.waitDurable(tk) != nil {
		return false
	}
	return r.delete(keyVals)
}

// delete applies one deletion without logging.
func (r *Relation) delete(keyVals []value.Value) bool {
	k := value.EncodeKey(keyVals)
	si, ok := r.store.LookupKey(k)
	if !ok {
		return false
	}
	tuple, live, err := r.store.Get(si)
	if err != nil || !live {
		return false
	}
	for _, ix := range r.colIndexes {
		ix.remove(tuple[ix.colIdx], r.refOf(si))
	}
	drifted := r.stTable.ObserveDelete(tuple)
	if err := r.store.Delete(si, k); err != nil {
		// The store cannot fail here today (deletes touch in-memory
		// structures only); fail loudly if it ever does.
		panic(fmt.Sprintf("relation %s: delete slot %d: %v", r.sch.Name, si, err))
	}
	r.live.Add(-1)
	r.mutated(drifted)
	return true
}

// Assign implements the := operator: it replaces the relation's contents
// with the given tuples. All previously issued references become stale.
// Validation (types and intra-list key conflicts) happens before
// anything is destroyed, so a failed assignment leaves the contents
// untouched.
func (r *Relation) Assign(tuples [][]value.Value) error {
	r.lock()
	if err := r.durableErr(); err != nil {
		r.unlock()
		return err
	}
	err := r.assign(tuples)
	var tk storage.Ticket
	if err == nil {
		tk, err = r.logMutation(storage.Record{Op: storage.OpAssign, Rel: r.id, Tuples: tuples})
	}
	r.unlock()
	if err == nil {
		err = r.waitDurable(tk)
	}
	return err
}

// assign applies one assignment without logging.
func (r *Relation) assign(tuples [][]value.Value) error {
	byKey := make(map[string]int, len(tuples))
	for i, t := range tuples {
		if err := r.sch.CheckTuple(t); err != nil {
			return err
		}
		k := r.sch.EncodeKeyOf(t)
		if j, dup := byKey[k]; dup && !tuplesEqual(tuples[j], t) {
			return fmt.Errorf("relation %s: key %s already present with different components",
				r.sch.Name, formatKey(r.sch, t))
		}
		byKey[k] = i
	}
	// Invalidate everything currently stored.
	if err := r.store.Reset(); err != nil {
		return err
	}
	r.live.Store(0)
	for _, ix := range r.colIndexes {
		ix.reset()
	}
	r.stTable.Reset()
	r.mutated(false)
	for _, t := range tuples {
		if _, _, err := r.insert(t); err != nil {
			return err
		}
	}
	return nil
}

// logMutation appends one WAL record for this relation's mutation when
// the owning database is durable, returning the group-commit ticket for
// waitDurable; a no-op for standalone relations and in-memory
// databases. Called under the content write lock.
func (r *Relation) logMutation(rec storage.Record) (storage.Ticket, error) {
	if r.owner == nil {
		return 0, nil
	}
	return r.owner.logRecord(r, rec)
}

// waitDurable blocks until the logged record behind tk is fsynced; a
// no-op for standalone relations, in-memory databases, and zero
// tickets. See DB.waitDurable for the lock discipline.
func (r *Relation) waitDurable(tk storage.Ticket) error {
	if r.owner == nil {
		return nil
	}
	return r.owner.waitDurable(tk)
}

// durableErr returns the owning database's sticky durability error: set
// when a WAL append or covering fsync failed, after which mutators
// refuse to run so the in-memory state cannot drift further from the
// durable state. Nil for standalone relations and in-memory databases.
// Callers hold the content write lock.
func (r *Relation) durableErr() error {
	if r.owner == nil || r.owner.dur == nil {
		return nil
	}
	return r.owner.dur.sticky()
}

// applyReplay applies one already-assembled WAL record to this relation
// during parallel replay. It mirrors applyRecord's per-relation arms but
// calls the lock-free mutator cores directly: the replay job owns the
// relation outright, the DB-wide content lock is not taken (jobs for
// different relations run concurrently), and logging is suppressed by
// the replaying flag anyway. Replay is strict, as in applyRecord: every
// logged record was effective when written.
func (r *Relation) applyReplay(rec storage.Record) error {
	switch rec.Op {
	case storage.OpCreateIndex:
		_, err := r.createIndexLocked(rec.Col)
		return err
	case storage.OpInsert:
		_, _, err := r.insert(rec.Tuple)
		return err
	case storage.OpDelete:
		if !r.delete(rec.Key) {
			return fmt.Errorf("logged delete of absent key in %s", r.sch.Name)
		}
		return nil
	case storage.OpAssign:
		return r.assign(rec.Tuples)
	}
	return fmt.Errorf("unexpected WAL op %d in relation queue", rec.Op)
}

// Lookup implements the selected variable rel[keyval]: it returns the
// reference of the element with the given key values.
func (r *Relation) Lookup(keyVals []value.Value) (value.Value, bool) {
	r.rlock()
	defer r.runlock()
	si, ok := r.store.LookupKey(value.EncodeKey(keyVals))
	if !ok {
		return value.Value{}, false
	}
	return r.refOf(si), true
}

// Get returns the tuple with the given key values. The tuple belongs to
// the caller.
func (r *Relation) Get(keyVals []value.Value) ([]value.Value, bool) {
	r.rlock()
	defer r.runlock()
	si, ok := r.store.LookupKey(value.EncodeKey(keyVals))
	if !ok {
		return nil, false
	}
	tuple, live, err := r.store.Get(si)
	if err != nil || !live {
		return nil, false
	}
	return tuple, true
}

// Deref regains the element from a reference (the postfix @ operator).
// It errors on references to other relations, stale references, and
// malformed slots. The tuple belongs to the caller.
func (r *Relation) Deref(ref value.Value) ([]value.Value, error) {
	r.rlock()
	defer r.runlock()
	return r.derefInto(ref, nil)
}

// derefInto is Deref into dst (grown as needed) and without the lock,
// for callers that hold the database read lock themselves (DB.DerefInto
// under the construction phase).
//
// Staleness detection leans on the backend's append-only discipline:
// slots are never reused, so every live element is at generation zero.
// A reference carrying a non-zero generation predates that invariant
// (it cannot have been minted here) and is stale by construction.
func (r *Relation) derefInto(ref value.Value, dst []value.Value) ([]value.Value, error) {
	rel, si, gen := ref.AsRef()
	if rel != r.id {
		return nil, fmt.Errorf("relation %s: reference belongs to relation id %d", r.sch.Name, rel)
	}
	if si < 0 || si >= r.store.SlotSpan() {
		return nil, fmt.Errorf("relation %s: reference slot %d out of range", r.sch.Name, si)
	}
	if gen != 0 {
		return nil, fmt.Errorf("relation %s: %w to slot %d", r.sch.Name, ErrStale, si)
	}
	tuple, live, err := r.store.GetInto(si, dst)
	if err != nil {
		return nil, fmt.Errorf("relation %s: slot %d: %w", r.sch.Name, si, err)
	}
	if !live {
		return nil, fmt.Errorf("relation %s: %w to slot %d", r.sch.Name, ErrStale, si)
	}
	return tuple, nil
}

// Scan iterates the elements in insertion order, calling fn with each
// element's reference and tuple until fn returns false. One Scan call is
// counted as one base-relation scan against the attached sink. The
// tuple passed to fn lives in a buffer the scan reuses: fn must neither
// modify nor retain it. The content read lock is held for the duration
// of the scan.
func (r *Relation) Scan(fn func(ref value.Value, tuple []value.Value) bool) {
	r.rlock()
	defer r.runlock()
	r.st.CountScan(r.sch.Name)
	r.scan(r.st, fn)
}

// ScanStats is Scan with an explicit counter sink, so concurrent
// readers (the baseline oracle, statistics analysis) can count into
// private sinks instead of racing on the attached one. A nil sink
// disables counting.
func (r *Relation) ScanStats(st *stats.Counters, fn func(ref value.Value, tuple []value.Value) bool) {
	r.rlock()
	defer r.runlock()
	st.CountScan(r.sch.Name)
	r.scan(st, fn)
}

func (r *Relation) scan(st *stats.Counters, fn func(ref value.Value, tuple []value.Value) bool) {
	_ = r.store.Scan(0, r.store.SlotSpan(), func(si int, tuple []value.Value) bool {
		st.CountTuples(1)
		return fn(r.refOf(si), tuple)
	})
}

// SlotSpan returns the exclusive upper bound of slot indexes, the end
// of the range a full ScanBatches covers. Callers must hold the database read lock
// (or otherwise own the relation exclusively).
func (r *Relation) SlotSpan() int { return r.store.SlotSpan() }

// ScanBatches is the engine's scan: it has the slot store fill b with
// the live slots in [lo, hi) in slot order (storage.Disk.ScanBatchesInto
// fills column by column, SSTable-resident rows from their blocks and
// memtable rows from its column run), calling fn whenever b fills,
// plus once more for a final partial batch. cols selects which columns
// to materialize — the projection pushdown: nil materializes every
// column, a non-nil list (possibly empty, for reference-only scans) only
// the named ones, leaving the rest unreadable. Tuples are counted in
// bulk per batch immediately before fn (but no scan start — the caller
// counts that). fn must not retain the batch; it is reset after each
// call. ScanBatches takes no lock: callers must hold the database read
// lock. An error from fn, or from the store (SSTable
// reads can fail), aborts the scan and is returned.
func (r *Relation) ScanBatches(st *stats.Counters, lo, hi int, b *colbatch.Batch, cols []int, fn func() error) error {
	flush := func() error {
		st.CountTuples(b.Len())
		if err := fn(); err != nil {
			return err
		}
		b.Reset()
		return nil
	}
	b.Configure(r.id, r.batchKinds, r.batchEnums)
	return r.store.ScanBatchesInto(lo, hi, cols, b, flush)
}

// Refs returns the references of all elements in insertion order,
// counting one scan.
func (r *Relation) Refs() []value.Value {
	out := make([]value.Value, 0, r.Len())
	r.Scan(func(ref value.Value, _ []value.Value) bool {
		out = append(out, ref)
		return true
	})
	return out
}

// Tuples returns copies of all tuples in insertion order, counting one
// scan.
func (r *Relation) Tuples() [][]value.Value {
	out := make([][]value.Value, 0, r.Len())
	r.Scan(func(_ value.Value, tuple []value.Value) bool {
		out = append(out, slices.Clone(tuple))
		return true
	})
	return out
}

// mutated reports a content change to the owning database (no-op for
// standalone relations). Insert calls it only for genuinely new
// elements, Delete only for present keys, so no-op statements leave the
// database version — and everything tagged with it — untouched. The
// per-relation mutation counter bumps strictly after the statistics
// observed the change, so a snapshot tagged with a counter value never
// misses the mutations that counter covers. drifted is the Observe
// call's verdict (computed under the statistics lock it already held);
// when set, a background re-bucketing is scheduled (single-flight per
// relation).
func (r *Relation) mutated(drifted bool) {
	r.bumpStatsVersion()
	if r.onMutate != nil {
		r.onMutate()
	}
	if drifted && r.owner != nil {
		r.owner.scheduleStatsRebuild(r)
	}
}

// bumpStatsVersion advances the per-relation mutation counter and the
// owning database's statistics epoch (strictly after the statistics
// observed the change — see mutated).
func (r *Relation) bumpStatsVersion() {
	r.mutCount.Add(1)
	if r.owner != nil {
		r.owner.statsEpoch.Add(1)
	}
}

// MutCount returns the relation's content-mutation counter: the
// per-relation staleness key for cached statistics. Atomic, safe
// without any lock.
func (r *Relation) MutCount() uint64 { return r.mutCount.Load() }

// LiveStats returns the relation's incrementally maintained statistics
// (nil for standalone relations). The returned TableStats is internally
// synchronized; mutators keep feeding it.
func (r *Relation) LiveStats() *stats.TableStats { return r.stTable }

// rebuildStats rescans the relation and replaces its statistics with
// freshly built ones (true quantile bucket boundaries, exact distinct
// counts). It takes the content read lock like any other reader — do
// not call it while holding the database read lock.
func (r *Relation) rebuildStats() *stats.TableStats {
	r.rlock()
	defer r.runlock()
	return r.rebuildStatsLocked()
}

// rebuildStatsLocked is rebuildStats for callers already holding the
// content (read) lock. Standalone relations build a detached summary.
func (r *Relation) rebuildStatsLocked() *stats.TableStats {
	ts := r.stTable
	if ts == nil {
		cols := make([]string, len(r.sch.Cols))
		for i, c := range r.sch.Cols {
			cols[i] = c.Name
		}
		ts = stats.NewTableStats(r.sch.Name, cols)
	}
	rb := ts.NewRebuild()
	// A disk-tier read error aborts the rescan; committing a partial
	// rebuild would be worse than keeping the drifted statistics.
	if err := r.store.Scan(0, r.store.SlotSpan(), func(_ int, tuple []value.Value) bool {
		rb.Add(tuple)
		return true
	}); err != nil {
		return ts
	}
	rb.Commit()
	if r.stTable != nil {
		// The rebuild changed the statistics without changing contents:
		// bump the statistics version (after the commit, so a snapshot
		// tagged with the new value always includes the rebuilt state)
		// or cached estimator snapshots would keep serving the
		// pre-rebuild histograms. Deliberately not mutated(): the DB
		// content version must not move — compiled plans stay valid.
		r.bumpStatsVersion()
	}
	return ts
}

// refOf mints the reference of slot si. Generation is always zero: the
// backend never revives a slot, so liveness alone decides staleness.
func (r *Relation) refOf(si int) value.Value {
	return value.Ref(r.id, si, 0)
}

func tuplesEqual(a, b []value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !value.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func formatKey(sch *schema.RelSchema, tuple []value.Value) string {
	key := sch.KeyOf(tuple)
	s := "<"
	for i, v := range key {
		if i > 0 {
			s += ","
		}
		s += v.String()
	}
	return s + ">"
}
