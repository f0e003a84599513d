// Package collection implements the collection phase's intermediate
// structures (section 3.2 of the paper): single lists for monadic join
// terms, indexes that associate component values with references,
// indirect joins for dyadic join terms, and the value lists of strategy
// 4 together with their single-value refinements (section 4.4).
//
// The structures are all expressible as PASCAL/R relations over
// reference components (Figure 2 of the paper); here they get dedicated
// representations so index probes are cheap.
package collection

import (
	"fmt"
	"sort"

	"pascalr/internal/stats"
	"pascalr/internal/value"
)

// SingleList is a unary relation of references to elements satisfying
// monadic join terms, e.g. sl_prof or sl_csoph in Figure 2.
type SingleList struct {
	Var  string
	refs []value.Value
	set  map[string]struct{}
}

// NewSingleList creates an empty single list for a variable.
func NewSingleList(v string) *SingleList {
	return &SingleList{Var: v, set: make(map[string]struct{})}
}

// Add inserts a reference.
func (sl *SingleList) Add(ref value.Value) {
	k := value.EncodeKey([]value.Value{ref})
	if _, dup := sl.set[k]; dup {
		return
	}
	sl.set[k] = struct{}{}
	sl.refs = append(sl.refs, ref)
}

// Refs returns the references in insertion order.
func (sl *SingleList) Refs() []value.Value { return sl.refs }

// Len returns the number of references.
func (sl *SingleList) Len() int { return len(sl.refs) }

// Has reports whether a reference is present.
func (sl *SingleList) Has(ref value.Value) bool {
	_, ok := sl.set[value.EncodeKey([]value.Value{ref})]
	return ok
}

// IndexEntry associates one component value with one reference.
type IndexEntry struct {
	Val value.Value
	Ref value.Value
}

// Index is a (partial) index on one relation: component value ->
// references, e.g. ind_t_cnr in Figure 2. The build phase appends plain
// (value, reference) entries; the entry list is immutable once the
// build scan completes, and both access structures derive from it
// lazily — the equality hash table on the first =-probe, and a sorted
// *copy* of the entries on the first ordered probe. Because the
// insertion-order list is never mutated after the build, <>-probes and
// the equality map always see the same deterministic order, and scans
// that build an index nobody equality-probes never pay the hashing.
//
// The plan's scan order completes an index's build scan before any
// probing scan starts; one execution owns the index, so it needs no
// lock. Probes count into the caller's sink.
type Index struct {
	Rel string
	Col string

	entries []IndexEntry // insertion order; immutable once built

	eq     map[string][]value.Value // built on the first =-probe
	sorted []IndexEntry             // ascending by Val, stable; built on the first ordered probe
}

// NewIndex creates an empty index over rel.col.
func NewIndex(rel, col string) *Index {
	return &Index{Rel: rel, Col: col}
}

// Add indexes one element's component value.
func (ix *Index) Add(v, ref value.Value) {
	ix.entries = append(ix.entries, IndexEntry{Val: v, Ref: ref})
}

// eqMap builds (on the first =-probe) and returns the equality hash
// table. Entries are immutable by then: builds complete before probes.
func (ix *Index) eqMap() map[string][]value.Value {
	if ix.eq == nil {
		ix.eq = make(map[string][]value.Value, len(ix.entries))
		for _, e := range ix.entries {
			k := value.EncodeKey([]value.Value{e.Val})
			ix.eq[k] = append(ix.eq[k], e.Ref)
		}
	}
	return ix.eq
}

// sortedEntries builds (on the first ordered probe) and returns a
// stable sorted copy of the entries; the insertion-order list stays
// untouched.
func (ix *Index) sortedEntries() []IndexEntry {
	if ix.sorted == nil && len(ix.entries) > 0 {
		ix.sorted = append([]IndexEntry(nil), ix.entries...)
		sort.SliceStable(ix.sorted, func(i, j int) bool {
			return value.MustCompare(ix.sorted[i].Val, ix.sorted[j].Val) < 0
		})
	}
	return ix.sorted
}

// Len returns the number of indexed entries.
func (ix *Index) Len() int { return len(ix.entries) }

// Entries returns the indexed (value, reference) pairs; callers must not
// modify them. The order is unspecified.
func (ix *Index) Entries() []IndexEntry { return ix.entries }

// ProbeEq returns the references whose indexed value equals v, counting
// one probe into st.
func (ix *Index) ProbeEq(st *stats.Counters, v value.Value) []value.Value {
	st.CountProbes(1)
	return ix.eqMap()[value.EncodeKey([]value.Value{v})]
}

// Probe calls fn with every reference whose indexed value iv satisfies
// "pv op iv" — the probe value on the left, as in a join term
// probe.col OP index.col. Equality uses the hash table; the ordered
// operators use binary search over the sorted entries; <> scans.
// Probes and comparisons count into st, the probing worker's sink.
func (ix *Index) Probe(st *stats.Counters, op value.CmpOp, pv value.Value, fn func(ref value.Value)) {
	st.CountProbes(1)
	switch op {
	case value.OpEq:
		for _, ref := range ix.eqMap()[value.EncodeKey([]value.Value{pv})] {
			fn(ref)
		}
	case value.OpNe:
		// Insertion order, always: the list is immutable post-build, so
		// emission order is deterministic regardless of which probes ran
		// before.
		for _, e := range ix.entries {
			st.CountComparisons(1)
			if !value.Equal(e.Val, pv) {
				fn(e.Ref)
			}
		}
	default:
		se := ix.sortedEntries()
		// entries sorted ascending by Val; find the range of indexed
		// values iv with "pv op iv" true.
		n := len(se)
		var lo, hi int // half-open [lo, hi)
		switch op {
		case value.OpLt: // pv < iv: iv strictly greater than pv
			lo = sort.Search(n, func(i int) bool { return value.MustCompare(se[i].Val, pv) > 0 })
			hi = n
		case value.OpLe: // pv <= iv
			lo = sort.Search(n, func(i int) bool { return value.MustCompare(se[i].Val, pv) >= 0 })
			hi = n
		case value.OpGt: // pv > iv: iv strictly less than pv
			lo = 0
			hi = sort.Search(n, func(i int) bool { return value.MustCompare(se[i].Val, pv) >= 0 })
		case value.OpGe: // pv >= iv
			lo = 0
			hi = sort.Search(n, func(i int) bool { return value.MustCompare(se[i].Val, pv) > 0 })
		}
		for i := lo; i < hi; i++ {
			fn(se[i].Ref)
		}
	}
}

// IndirectJoin is a binary relation of reference pairs satisfying a
// dyadic join term, e.g. ij_c_t in Figure 2. Pairs are stored as
// emitted, without a dedup table: every producer emits each pair at
// most once (a probing element is scanned once, an index entry is
// enumerated once), and the combination phase's reference relations
// deduplicate on ingestion anyway — the set semantics of the paper's
// Figure 2 relations are preserved downstream.
type IndirectJoin struct {
	LVar, RVar string
	pairs      [][2]value.Value
}

// NewIndirectJoin creates an empty indirect join between two variables.
func NewIndirectJoin(lv, rv string) *IndirectJoin {
	return &IndirectJoin{LVar: lv, RVar: rv}
}

// Add inserts a reference pair.
func (ij *IndirectJoin) Add(l, r value.Value) {
	ij.pairs = append(ij.pairs, [2]value.Value{l, r})
}

// Pairs returns the reference pairs in insertion order.
func (ij *IndirectJoin) Pairs() [][2]value.Value { return ij.pairs }

// Len returns the number of pairs.
func (ij *IndirectJoin) Len() int { return len(ij.pairs) }

func (ij *IndirectJoin) String() string {
	return fmt.Sprintf("ij(%s,%s)[%d]", ij.LVar, ij.RVar, ij.Len())
}
