package algebra

import (
	"pascalr/internal/recycle"
	"pascalr/internal/stats"
)

// Workspace lends reference relations, and the scratch memory the
// operations use, and takes them back when the combination phase's
// results are no longer read, keeping their memory for the next
// execution. The zero Workspace is empty and ready to use. A Workspace
// serves one execution at a time.
type Workspace struct {
	rels recycle.List[RefRel]
	// The scratch memory of one call site each, emptied on entry and
	// dead on return: Join's hash chains (chainRows is the most rows
	// they chained since the last Trim), DistinctOn's set, and Divide's
	// divisor, group and pair sets and per-group counts.
	head, next         []int32
	chainRows          int
	distinct           tupleSet
	divs, groups, seen tupleSet
	hits               []int
}

// New lends an empty reference relation with the given variable
// columns. Tuples added through Add are counted against st.
func (w *Workspace) New(vars []string, st *stats.Counters) *RefRel {
	r := w.rels.Lend()
	if r.varIdx == nil {
		r.varIdx = make(map[string]int, len(vars))
	}
	r.ws = w
	r.init(vars, st)
	return r
}

// chains returns Join's bucket heads, cleared, and its chain links
// for n build rows.
func (w *Workspace) chains(buckets, n int) (head, next []int32) {
	w.chainRows = max(w.chainRows, n)
	w.head, w.next = recycle.Resize(w.head, buckets), recycle.Resize(w.next, n)
	clear(w.head)
	return w.head, w.next
}

// distinctSet returns DistinctOn's empty set for at most n rows of
// width words.
func (w *Workspace) distinctSet(width, n int) *tupleSet {
	w.distinct.resetFor(width, n)
	return &w.distinct
}

// divideSets returns Divide's empty sets — for members of a divisor
// of d references, and groups of width words and (group, member) pairs
// out of n rows — and its empty per-group counter; keepCounts takes
// back what the counter grew to.
func (w *Workspace) divideSets(d, width, n int) (divs, groups, seen *tupleSet, hits []int) {
	w.divs.resetFor(1, d)
	w.groups.resetFor(width, n)
	w.seen.resetFor(2, n)
	return &w.divs, &w.groups, &w.seen, w.hits[:0]
}

func (w *Workspace) keepCounts(hits []int) {
	w.hits = hits
}

// Release takes back every relation the workspace lent, except keep
// (nil: all of them), which stays lent until the next Release, and the
// scratch memory. What is returned is cleared (or poisoned, under
// recycle.Poison) and must not be read again.
func (w *Workspace) Release(keep *RefRel) {
	w.rels.Return(keep, func(r *RefRel) {
		recycle.Fill(r.vars, recycle.Str)
		clear(r.varIdx)
		clear(r.distinctCache)
		r.st = nil
		r.set.scrub()
	})
	for _, s := range w.scratchSets() {
		s.scrub()
	}
	recycle.Scrub(w.hits, -1)
	recycle.Scrub(w.head, -1)
	recycle.Scrub(w.next, -1)
}

// Trim drops the memory far beyond what the relations and scratch
// memory held since the last Trim, and the free relations beyond what
// was lent at once (recycle.Keep, recycle.List.Trim). Call it after a
// Release that kept nothing.
func (w *Workspace) Trim() {
	w.rels.Trim(func(r *RefRel) { r.set.trim() })
	w.hits = recycle.Keep(w.hits, max(w.groups.peak, w.groups.n))
	for _, s := range w.scratchSets() {
		s.trim()
	}
	w.head = recycle.Keep(w.head, 2*w.chainRows)
	w.next = recycle.Keep(w.next, w.chainRows)
	w.chainRows = 0
}

func (w *Workspace) scratchSets() [4]*tupleSet {
	return [4]*tupleSet{&w.distinct, &w.divs, &w.groups, &w.seen}
}
