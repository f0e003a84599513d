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
// Every relation belongs to a DB (DB.Create, OpenDB). Tuples live in a
// storage.Disk slot store: one with no directory (storage.NewMemory)
// for in-memory databases, or one spilling to SSTables for durable
// databases. Relations share the database's content RWMutex (see the
// locking discipline on DB): exported mutators write through DB.write
// and readers lock per call, while the snapshot accessors
// (ScanBatches, SlotSpan, DerefInto) rely on the caller
// holding the database read lock. Every content read of a fail-stopped
// database returns its sticky durability error (DB.Err). Query results
// are not relations: the engine hands back the constructed rows.
package relation

import (
	"errors"
	"fmt"
	"slices"
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

	// stTable is the incrementally maintained statistics of this
	// relation (histograms, distinct counts), fed by every
	// insert, delete, and assignment under the content write lock.
	// owner is the database the relation belongs to: its content lock,
	// version, write-ahead log and background rebuilds.
	stTable *stats.TableStats
	owner   *DB
	// mutCount counts this relation's content mutations — the
	// per-relation staleness key for statistics snapshots, so a mutation
	// of one relation invalidates only its own cached statistics.
	mutCount atomic.Uint64

	st *stats.Counters
}

// newRelation creates a relation over the given empty or checkpointed
// slot store; DB.attach makes it the database's. The id must fit in 16
// bits (it is packed into reference values).
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

// Insert implements the :+ operator for a single element. Inserting an
// element whose key is present with identical non-key components is a
// no-op (relations are sets); a key collision with different components
// is an error. It returns the element's reference.
func (r *Relation) Insert(tuple []value.Value) (value.Value, error) {
	var ref value.Value
	err := r.owner.write(r, func() (_ storage.Record, added bool, err error) {
		ref, added, err = r.insert(tuple)
		return storage.Record{Op: storage.OpInsert, Rel: r.id, Tuple: tuple}, added, err
	})
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
// its key values. It reports whether an element was removed; an absent
// key is a no-op, not an error. References to the removed element
// become stale. An unreadable key probe or a failed store delete
// returns its error and removes nothing; a failed append or fsync
// returns the database's sticky durability error (see DB.Err). The key
// probe runs under the same write lock as the apply and the append, so
// a logged delete is always effective — replay treats a logged delete
// of an absent key as corruption.
func (r *Relation) Delete(keyVals []value.Value) (bool, error) {
	removed := false
	err := r.owner.write(r, func() (storage.Record, bool, error) {
		rec := storage.Record{Op: storage.OpDelete, Rel: r.id, Key: keyVals}
		k := value.EncodeKey(keyVals)
		si, ok, err := r.store.ProbeKey(k)
		if err != nil {
			return rec, false, fmt.Errorf("relation %s: key probe: %w", r.sch.Name, err)
		}
		if !ok {
			return rec, false, nil
		}
		tuple, _, err := r.store.Get(si) // ProbeKey finds live slots only
		if err != nil {
			return rec, false, fmt.Errorf("relation %s: slot %d: %w", r.sch.Name, si, err)
		}
		if err := r.store.Delete(si, k); err != nil {
			return rec, false, fmt.Errorf("relation %s: delete slot %d: %w", r.sch.Name, si, err)
		}
		for _, ix := range r.colIndexes {
			ix.remove(tuple[ix.colIdx], r.refOf(si))
		}
		drifted := r.stTable.ObserveDelete(tuple)
		r.live.Add(-1)
		r.mutated(drifted)
		removed = true
		return rec, true, nil
	})
	return removed && err == nil, err
}

// Assign implements the := operator: it replaces the relation's contents
// with the given tuples. All previously issued references become stale.
// Validation (types and intra-list key conflicts) happens before
// anything is destroyed, so a failed assignment leaves the contents
// untouched.
func (r *Relation) Assign(tuples [][]value.Value) error {
	return r.owner.write(r, func() (storage.Record, bool, error) {
		return storage.Record{Op: storage.OpAssign, Rel: r.id, Tuples: tuples}, true, r.assign(tuples)
	})
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

// Lookup implements the selected variable rel[keyval]: it returns the
// reference of the element with the given key values. An unreadable
// SSTable is an error, not an absent key.
func (r *Relation) Lookup(keyVals []value.Value) (value.Value, bool, error) {
	r.owner.mu.RLock()
	defer r.owner.mu.RUnlock()
	si, ok, err := r.probe(keyVals)
	if err != nil || !ok {
		return value.Value{}, false, err
	}
	return r.refOf(si), true, nil
}

// Get returns the tuple with the given key values. The tuple belongs to
// the caller. An unreadable SSTable is an error, not an absent key.
func (r *Relation) Get(keyVals []value.Value) ([]value.Value, bool, error) {
	r.owner.mu.RLock()
	defer r.owner.mu.RUnlock()
	si, ok, err := r.probe(keyVals)
	if err != nil || !ok {
		return nil, false, err
	}
	tuple, _, err := r.store.Get(si) // ProbeKey finds live slots only
	if err != nil {
		return nil, false, fmt.Errorf("relation %s: slot %d: %w", r.sch.Name, si, err)
	}
	return tuple, true, nil
}

// probe is the point reads' key probe, behind the fail-stop fence.
func (r *Relation) probe(keyVals []value.Value) (int, bool, error) {
	if err := r.owner.Err(); err != nil {
		return 0, false, err
	}
	si, ok, err := r.store.ProbeKey(value.EncodeKey(keyVals))
	if err != nil {
		return 0, false, fmt.Errorf("relation %s: key probe: %w", r.sch.Name, err)
	}
	return si, ok, nil
}

// Deref regains the element from a reference (the postfix @ operator).
// It errors on references to other relations, stale references, and
// malformed slots. The tuple belongs to the caller.
func (r *Relation) Deref(ref value.Value) ([]value.Value, error) {
	r.owner.mu.RLock()
	defer r.owner.mu.RUnlock()
	return r.DerefInto(ref, nil)
}

// DerefInto is Deref into dst (grown as needed) and without the lock,
// for callers that hold the database read lock themselves (the
// construction phase, which resolves each variable's relation once and
// dereferences through it). A fail-stopped database returns its sticky
// error.
//
// Staleness detection leans on the backend's append-only discipline:
// slots are never reused, so every live element is at generation zero.
// A reference carrying a non-zero generation predates that invariant
// (it cannot have been minted here) and is stale by construction.
func (r *Relation) DerefInto(ref value.Value, dst []value.Value) ([]value.Value, error) {
	if err := r.owner.Err(); err != nil {
		return nil, err
	}
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
// element's reference and tuple until fn returns false. One Scan call
// is counted as one base-relation scan against st (nil disables
// counting), so concurrent readers count into private sinks. The tuple
// passed to fn lives in a buffer the scan reuses: fn must neither
// modify nor retain it. The content read lock is held for the duration
// of the scan. An unreadable SSTable aborts the scan with its error,
// and a fail-stopped database returns its sticky error.
func (r *Relation) Scan(st *stats.Counters, fn func(ref value.Value, tuple []value.Value) bool) error {
	r.owner.mu.RLock()
	defer r.owner.mu.RUnlock()
	if err := r.owner.Err(); err != nil {
		return err
	}
	st.CountScan(r.sch.Name)
	tuple := make([]value.Value, len(r.sch.Cols))
	return r.walk(nil, func(b *colbatch.Batch, i int) bool {
		b.Row(i, tuple)
		st.CountTuples(1)
		return fn(b.Ref(i), tuple)
	})
}

// errStopWalk ends a walk whose visitor returned false.
var errStopWalk = errors.New("relation: walk stopped")

// walkBatchRows is the most rows one batch of a walk holds. A walk
// boxes its rows one at a time, so a larger batch only adds memory to
// allocate: a walk over a 2 000-row memtable took the same time with
// batches of 64 to 256 rows, and a third longer with 1 024.
const walkBatchRows = 128

// walk hands every live row to fn in ascending slot order, through
// column batches the store fills with the columns cols (nil = all): fn
// gets the batch and the row's index in it, and returning false stops
// the walk. A store error is returned. Callers hold the database lock.
func (r *Relation) walk(cols []int, fn func(b *colbatch.Batch, i int) bool) error {
	span := r.store.SlotSpan()
	b := colbatch.New(len(r.sch.Cols), min(span, walkBatchRows))
	b.Configure(r.id, r.batchKinds, r.batchEnums)
	err := r.store.ScanBatchesInto(0, span, cols, b, func() error {
		for i := range b.Len() {
			if !fn(b, i) {
				return errStopWalk
			}
		}
		b.Reset()
		return nil
	})
	if errors.Is(err, errStopWalk) {
		return nil
	}
	return err
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
// reads can fail), aborts the scan and is returned; a fail-stopped
// database returns its sticky error before scanning.
func (r *Relation) ScanBatches(st *stats.Counters, lo, hi int, b *colbatch.Batch, cols []int, fn func() error) error {
	if err := r.owner.Err(); err != nil {
		return err
	}
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
// counting one scan against the database's attached sink (DB.SetStats).
// It drops Scan's error, so it is only for the benchmark's in-memory
// fixtures, whose scans cannot fail; read anything else with Scan.
func (r *Relation) Refs() []value.Value {
	out := make([]value.Value, 0, r.Len())
	_ = r.Scan(r.st, func(ref value.Value, _ []value.Value) bool {
		out = append(out, ref)
		return true
	})
	return out
}

// Tuples returns copies of all tuples in insertion order, counting one
// scan against the database's attached sink. Like Refs it drops Scan's
// error: it is only for the benchmark's in-memory fixtures.
func (r *Relation) Tuples() [][]value.Value {
	out := make([][]value.Value, 0, r.Len())
	_ = r.Scan(r.st, func(_ value.Value, tuple []value.Value) bool {
		out = append(out, slices.Clone(tuple))
		return true
	})
	return out
}

// mutated reports a content change to the owning database. Insert
// calls it only for genuinely new
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
	r.owner.bumpVersion()
	if drifted {
		r.owner.scheduleStatsRebuild(r)
	}
}

// bumpStatsVersion advances the per-relation mutation counter and the
// owning database's statistics epoch (strictly after the statistics
// observed the change — see mutated).
func (r *Relation) bumpStatsVersion() {
	r.mutCount.Add(1)
	r.owner.statsEpoch.Add(1)
}

// MutCount returns the relation's content-mutation counter: the
// per-relation staleness key for cached statistics. Atomic, safe
// without any lock.
func (r *Relation) MutCount() uint64 { return r.mutCount.Load() }

// LiveStats returns the relation's incrementally maintained
// statistics. The returned TableStats is internally synchronized;
// mutators keep feeding it. A fail-stopped database returns its sticky
// error instead: its statistics observed mutations recovery will not
// reproduce.
func (r *Relation) LiveStats() (*stats.TableStats, error) {
	if err := r.owner.Err(); err != nil {
		return nil, err
	}
	return r.stTable, nil
}

// rebuildStats rescans the relation and replaces its statistics with
// freshly built ones (true quantile bucket boundaries, exact distinct
// counts). It takes the content read lock like any other reader — do
// not call it while holding the database read lock.
func (r *Relation) rebuildStats() {
	r.owner.mu.RLock()
	defer r.owner.mu.RUnlock()
	r.rebuildStatsLocked()
}

// rebuildStatsLocked is rebuildStats for callers already holding the
// content (read) lock.
func (r *Relation) rebuildStatsLocked() {
	rb := r.stTable.NewRebuild()
	// A disk-tier read error aborts the rescan; committing a partial
	// rebuild would be worse than keeping the drifted statistics.
	tuple := make([]value.Value, len(r.sch.Cols))
	if err := r.walk(nil, func(b *colbatch.Batch, i int) bool {
		b.Row(i, tuple)
		rb.Add(tuple)
		return true
	}); err != nil {
		return
	}
	rb.Commit()
	// The rebuild changed the statistics without changing contents:
	// bump the statistics version (after the commit, so a snapshot
	// tagged with the new value always includes the rebuilt state) or
	// cached estimator snapshots would keep serving the pre-rebuild
	// histograms. Deliberately not mutated(): the DB content version
	// must not move — compiled plans stay valid.
	r.bumpStatsVersion()
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
