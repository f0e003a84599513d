// Package collection implements the collection phase's intermediate
// structures (section 3.2 of the paper): single lists for monadic join
// terms, indexes that associate component values with references,
// indirect joins for dyadic join terms, and the value lists of strategy
// 4 together with their single-value refinements (section 4.4).
//
// The structures are all expressible as PASCAL/R relations over
// reference components (Figure 2 of the paper); here they get dedicated
// representations so index probes are cheap. Every reference they hold
// is its packed int64 word (value.Value.Ord of a reference): a single
// list stores words, an indirect join word pairs, and an index chains
// its entries by the hash of the component value itself
// (value.Value.Hash), confirming each match with value.Equal. A value
// list holds the ordinals or strings of one component kind. Nothing is
// keyed by an encoded string or by a boxed value.
package collection

import (
	"fmt"
	"hash/maphash"
	"slices"
	"sort"

	"pascalr/internal/recycle"
	"pascalr/internal/stats"
	"pascalr/internal/value"
)

// SingleList is a unary relation of references to elements satisfying
// monadic join terms, e.g. sl_prof or sl_csoph in Figure 2. References
// are stored as added, without a dedup table: one task per list adds
// each element of one scan once, so the list holds distinct references
// in ascending slot order, and the combination phase's reference
// relations deduplicate on ingestion anyway.
type SingleList struct {
	Var  string
	refs []int64
	peak int // the most references held since a Workspace last trimmed it
}

// NewSingleList creates an empty single list for a variable.
func NewSingleList(v string) *SingleList {
	return &SingleList{Var: v}
}

// Reserve makes room for n more references.
func (sl *SingleList) Reserve(n int) { sl.refs = slices.Grow(sl.refs, n) }

// Add appends a packed reference.
func (sl *SingleList) Add(ref int64) { sl.refs = append(sl.refs, ref) }

// Refs returns the packed references in insertion order.
func (sl *SingleList) Refs() []int64 { return sl.refs }

// Len returns the number of references.
func (sl *SingleList) Len() int { return len(sl.refs) }

// IndexEntry associates one component value with one packed reference.
type IndexEntry struct {
	Val value.Value
	Ref int64
}

// valSeed seeds the index's value hash for the process.
var valSeed = maphash.MakeSeed()

// valHash hashes an indexed value. It is a variable so a test can force
// every value onto one hash and exercise the value.Equal confirmation.
var valHash = defaultValHash

func defaultValHash(v value.Value) uint64 {
	h := v.Hash(valSeed)
	return h ^ h>>32
}

// Index is a (partial) index on one relation: component value ->
// references, e.g. ind_t_cnr in Figure 2. The build phase appends plain
// (value, reference) entries; the entry list is immutable once the
// build scan completes, and both access structures derive from it
// lazily — the equality hash chains on the first =-probe, and a sorted
// *copy* of the entries on the first ordered probe. Because the
// insertion-order list is never mutated after the build, <>-probes and
// the equality chains always see the same deterministic order, and
// scans that build an index nobody equality-probes never pay the
// hashing.
//
// The plan's scan order completes an index's build scan before any
// probing scan starts; one execution owns the index, so it needs no
// lock. Probes count into the caller's sink.
type Index struct {
	Rel string
	Col string

	entries []IndexEntry // insertion order; immutable once built

	// head and next chain the entries by value hash, built on the
	// first =-probe: head maps a bucket to its first entry index+1,
	// next an entry to the bucket's next entry index+1 (0 ends a
	// chain). Chains run in insertion order. chained and isSorted mark
	// the two built, so a recycled index keeps their memory.
	head, next []int32
	sorted     []IndexEntry // ascending by Val, stable; built on the first ordered probe
	chained    bool
	isSorted   bool

	peak int // the most entries held since a Workspace last trimmed it
}

// NewIndex creates an empty index over rel.col.
func NewIndex(rel, col string) *Index {
	return &Index{Rel: rel, Col: col}
}

// Reserve makes room for n more entries.
func (ix *Index) Reserve(n int) { ix.entries = slices.Grow(ix.entries, n) }

// Add indexes one element's component value under its packed reference.
func (ix *Index) Add(v value.Value, ref int64) {
	ix.entries = append(ix.entries, IndexEntry{Val: v, Ref: ref})
}

// chain builds (on the first =-probe) the equality hash chains.
// Entries are immutable by then: builds complete before probes.
// Entries are inserted in reverse so every chain runs in insertion
// order.
func (ix *Index) chain() {
	if ix.chained {
		return
	}
	ix.chained = true
	nb := 1
	for nb < len(ix.entries) {
		nb <<= 1
	}
	ix.head = recycle.Resize(ix.head, nb)
	clear(ix.head)
	ix.next = recycle.Resize(ix.next, len(ix.entries))
	mask := uint64(nb - 1)
	for i := len(ix.entries) - 1; i >= 0; i-- {
		b := valHash(ix.entries[i].Val) & mask
		ix.next[i] = ix.head[b]
		ix.head[b] = int32(i + 1)
	}
}

// sortedEntries builds (on the first ordered probe) and returns a
// stable sorted copy of the entries; the insertion-order list stays
// untouched.
func (ix *Index) sortedEntries() []IndexEntry {
	if !ix.isSorted {
		ix.isSorted = true
		ix.sorted = append(ix.sorted[:0], ix.entries...)
		slices.SortStableFunc(ix.sorted, func(a, b IndexEntry) int {
			return value.MustCompare(a.Val, b.Val)
		})
	}
	return ix.sorted
}

// Len returns the number of indexed entries.
func (ix *Index) Len() int { return len(ix.entries) }

// Entries returns the indexed (value, reference) pairs in insertion
// order; callers must not modify them.
func (ix *Index) Entries() []IndexEntry { return ix.entries }

// Probe calls fn with every packed reference whose indexed value iv
// satisfies "pv op iv" — the probe value on the left, as in a join term
// probe.col OP index.col. Equality walks one hash chain, yielding equal
// values' references in insertion order; the ordered operators use
// binary search over the sorted entries; <> scans in insertion order.
// Probes and comparisons count into st, the probing worker's sink.
func (ix *Index) Probe(st *stats.Counters, op value.CmpOp, pv value.Value, fn func(ref int64)) {
	st.CountProbes(1)
	switch op {
	case value.OpEq:
		ix.chain()
		for e := ix.head[valHash(pv)&uint64(len(ix.head)-1)]; e != 0; e = ix.next[e-1] {
			if en := &ix.entries[e-1]; value.Equal(en.Val, pv) {
				fn(en.Ref)
			}
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
	pairs      [][2]int64
	peak       int // the most pairs held since a Workspace last trimmed it
}

// NewIndirectJoin creates an empty indirect join between two variables.
func NewIndirectJoin(lv, rv string) *IndirectJoin {
	return &IndirectJoin{LVar: lv, RVar: rv}
}

// Add inserts a pair of packed references.
func (ij *IndirectJoin) Add(l, r int64) {
	ij.pairs = append(ij.pairs, [2]int64{l, r})
}

// Pairs returns the packed reference pairs in insertion order.
func (ij *IndirectJoin) Pairs() [][2]int64 { return ij.pairs }

// Len returns the number of pairs.
func (ij *IndirectJoin) Len() int { return len(ij.pairs) }

func (ij *IndirectJoin) String() string {
	return fmt.Sprintf("ij(%s,%s)[%d]", ij.LVar, ij.RVar, ij.Len())
}
