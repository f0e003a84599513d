package relation

import (
	"fmt"
	"sort"
	"sync"

	"pascalr/internal/colbatch"
	"pascalr/internal/stats"
	"pascalr/internal/storage"
	"pascalr/internal/value"
)

// ColIndex is a permanent index on one component of a relation,
// maintained under insert, delete, and assign. The paper's collection
// phase builds partial indexes on the fly but notes that "the first
// step can be omitted, if permanent indexes exist" (section 3.2), and
// names integration with permanent access paths as ongoing research
// (section 5); ColIndex is that access path.
//
// Mutations happen under the database content write lock (they are
// called from the relation's mutators only); probes run under the
// content read lock, so the two never overlap. Ordered probes use a
// sorted *copy* of the value list, built lazily on first use (under
// sortMu, so concurrent probers share one build) and invalidated by
// mutations; the insertion-order list itself is immutable while any
// reader holds the content lock, so <>-probes and Entries traverse it
// lock-free in a deterministic order no matter how probes interleave.
type ColIndex struct {
	rel    *Relation
	col    string
	colIdx int

	eq      map[string][]value.Value // encoded value -> refs
	vals    []value.Value            // distinct values, insertion order
	entries int

	sortMu     sync.Mutex    // guards the lazy sorted copy
	sorted     bool          // sortedVals up to date
	sortedVals []value.Value // ascending copy of vals
}

// CreateIndex declares a permanent index on the named component and
// backfills it from the current contents (through the storage backend,
// so a disk-resident relation backfills from its SSTables). Creating
// the same index twice is an error. On a durable database the creation
// is logged, so recovery recreates the index.
func (r *Relation) CreateIndex(col string) (*ColIndex, error) {
	var ix *ColIndex
	err := r.owner.write(r, func() (_ storage.Record, _ bool, err error) {
		ix, err = r.createIndexLocked(col)
		return storage.Record{Op: storage.OpCreateIndex, Rel: r.id, Col: col}, true, err
	})
	if err != nil {
		return nil, err
	}
	return ix, nil
}

// createIndexLocked is CreateIndex's apply — declaration plus backfill
// — run by DB.write under the content write lock.
func (r *Relation) createIndexLocked(col string) (*ColIndex, error) {
	ci, ok := r.sch.ColIndex(col)
	if !ok {
		return nil, fmt.Errorf("relation %s: no component %s", r.sch.Name, col)
	}
	if _, dup := r.colIndexes[col]; dup {
		return nil, fmt.Errorf("relation %s: index on %s already exists", r.sch.Name, col)
	}
	ix := &ColIndex{rel: r, col: col, colIdx: ci, eq: make(map[string][]value.Value)}
	if err := r.walk([]int{ci}, func(b *colbatch.Batch, i int) bool {
		ix.add(b.ColVal(ci, i), b.Ref(i))
		return true
	}); err != nil {
		return nil, fmt.Errorf("relation %s: index backfill: %w", r.sch.Name, err)
	}
	if r.colIndexes == nil {
		r.colIndexes = make(map[string]*ColIndex)
	}
	r.colIndexes[col] = ix
	return ix, nil
}

// Index returns the permanent index on the named component, if any. It
// takes no lock — the engine calls it while already holding the
// database read lock; other callers must not race it with CreateIndex.
func (r *Relation) Index(col string) (*ColIndex, bool) {
	ix, ok := r.colIndexes[col]
	return ix, ok
}

// Indexes returns the indexed component names, sorted.
func (r *Relation) Indexes() []string {
	r.owner.mu.RLock()
	defer r.owner.mu.RUnlock()
	out := make([]string, 0, len(r.colIndexes))
	for col := range r.colIndexes {
		out = append(out, col)
	}
	sort.Strings(out)
	return out
}

// Col returns the indexed component name.
func (ix *ColIndex) Col() string { return ix.col }

// Len returns the number of indexed entries.
func (ix *ColIndex) Len() int { return ix.entries }

func (ix *ColIndex) add(v, ref value.Value) {
	k := value.EncodeKey([]value.Value{v})
	refs := ix.eq[k]
	if len(refs) == 0 {
		ix.vals = append(ix.vals, v)
		ix.invalidateSorted()
	}
	ix.eq[k] = append(refs, ref)
	ix.entries++
}

// invalidateSorted drops the sorted copy; called from mutators, which
// hold the content write lock, so no probe is concurrently reading it.
func (ix *ColIndex) invalidateSorted() {
	ix.sorted = false
	ix.sortedVals = nil
}

func (ix *ColIndex) remove(v, ref value.Value) {
	k := value.EncodeKey([]value.Value{v})
	refs := ix.eq[k]
	for i, r := range refs {
		if value.Equal(r, ref) {
			refs = append(refs[:i], refs[i+1:]...)
			break
		}
	}
	if len(refs) == 0 {
		delete(ix.eq, k)
		for i, val := range ix.vals {
			if value.Equal(val, v) {
				ix.vals = append(ix.vals[:i], ix.vals[i+1:]...)
				break
			}
		}
		ix.invalidateSorted()
	} else {
		ix.eq[k] = refs
	}
	ix.entries--
}

func (ix *ColIndex) reset() {
	ix.eq = make(map[string][]value.Value)
	ix.vals = nil
	ix.invalidateSorted()
	ix.entries = 0
}

// sortedSnapshot returns the ascending copy of the value list, building
// it on first use after a mutation. Mutators run under the content
// write lock (no concurrent probes), so the flag handoff is safe; the
// returned slice is immutable until the next mutation.
func (ix *ColIndex) sortedSnapshot() []value.Value {
	ix.sortMu.Lock()
	defer ix.sortMu.Unlock()
	if !ix.sorted {
		cp := append([]value.Value(nil), ix.vals...)
		sort.SliceStable(cp, func(i, j int) bool {
			return value.MustCompare(cp[i], cp[j]) < 0
		})
		ix.sortedVals = cp
		ix.sorted = true
	}
	return ix.sortedVals
}

// ProbeStats calls fn with every reference whose indexed value iv
// satisfies "pv op iv" — the same contract as the collection phase's
// transient indexes — counting probes and comparisons into st. Each
// execution passes its own sink, so concurrent executions never race
// on counting.
func (ix *ColIndex) ProbeStats(st *stats.Counters, op value.CmpOp, pv value.Value, fn func(ref value.Value)) {
	st.CountProbes(1)
	switch op {
	case value.OpEq:
		for _, ref := range ix.eq[value.EncodeKey([]value.Value{pv})] {
			fn(ref)
		}
	case value.OpNe:
		// Insertion order, always: vals is immutable while readers hold
		// the content lock, so emission order is deterministic no
		// matter which probes ran before.
		for _, v := range ix.vals {
			st.CountComparisons(1)
			if !value.Equal(v, pv) {
				for _, ref := range ix.eq[value.EncodeKey([]value.Value{v})] {
					fn(ref)
				}
			}
		}
	default:
		sv := ix.sortedSnapshot()
		n := len(sv)
		var lo, hi int
		switch op {
		case value.OpLt:
			lo = sort.Search(n, func(i int) bool { return value.MustCompare(sv[i], pv) > 0 })
			hi = n
		case value.OpLe:
			lo = sort.Search(n, func(i int) bool { return value.MustCompare(sv[i], pv) >= 0 })
			hi = n
		case value.OpGt:
			lo = 0
			hi = sort.Search(n, func(i int) bool { return value.MustCompare(sv[i], pv) >= 0 })
		case value.OpGe:
			lo = 0
			hi = sort.Search(n, func(i int) bool { return value.MustCompare(sv[i], pv) > 0 })
		}
		for i := lo; i < hi; i++ {
			for _, ref := range ix.eq[value.EncodeKey([]value.Value{sv[i]})] {
				fn(ref)
			}
		}
	}
}

// Entries iterates all (value, ref) pairs in insertion order; used by
// deferred index-index joins. The value list is immutable while the
// caller holds the content lock and no probe lock is taken, so fn may
// probe this very index (a self-join over one indexed column).
func (ix *ColIndex) Entries(fn func(v, ref value.Value)) {
	for _, v := range ix.vals {
		for _, ref := range ix.eq[value.EncodeKey([]value.Value{v})] {
			fn(v, ref)
		}
	}
}
