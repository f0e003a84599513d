package collection

import (
	"pascalr/internal/recycle"
	"pascalr/internal/value"
)

// Workspace lends the collection phase's structures — single lists,
// indexes, indirect joins and value lists — and takes them back when
// the phase's results are no longer read, keeping their memory for the
// next execution. A Workspace serves one execution at a time.
type Workspace struct {
	sls recycle.List[SingleList]
	ixs recycle.List[Index]
	ijs recycle.List[IndirectJoin]
	vls recycle.List[ValueList]
}

// SingleList lends an empty single list for a variable.
func (w *Workspace) SingleList(v string) *SingleList {
	sl := w.sls.Lend()
	sl.Var, sl.refs = v, sl.refs[:0]
	return sl
}

// Index lends an empty index over rel.col.
func (w *Workspace) Index(rel, col string) *Index {
	ix := w.ixs.Lend()
	ix.Rel, ix.Col = rel, col
	ix.entries, ix.sorted = ix.entries[:0], ix.sorted[:0]
	ix.head, ix.next = ix.head[:0], ix.next[:0]
	ix.chained, ix.isSorted = false, false
	return ix
}

// IndirectJoin lends an empty indirect join between two variables.
func (w *Workspace) IndirectJoin(lv, rv string) *IndirectJoin {
	ij := w.ijs.Lend()
	ij.LVar, ij.RVar, ij.pairs = lv, rv, ij.pairs[:0]
	return ij
}

// ValueList lends an empty value list of one kind (see NewValueList).
func (w *Workspace) ValueList(kind value.Kind, enumType string) *ValueList {
	vl := w.vls.Lend()
	if kind != value.KindEnum {
		enumType = ""
	}
	vl.kind, vl.enumType = kind, enumType
	vl.ords, vl.strs = vl.ords[:0], vl.strs[:0]
	vl.lo, vl.hi = 0, 0
	clear(vl.table)
	return vl
}

// Release takes back every structure the workspace lent. Their
// contents are cleared (or poisoned, under recycle.Poison) and must not
// be read again.
func (w *Workspace) Release() {
	w.sls.Return(nil, func(sl *SingleList) {
		sl.peak = max(sl.peak, len(sl.refs))
		recycle.Scrub(sl.refs, recycle.Word)
	})
	w.ixs.Return(nil, func(ix *Index) {
		ix.peak = max(ix.peak, len(ix.entries))
		poisoned := IndexEntry{Val: recycle.Value, Ref: recycle.Word}
		recycle.Fill(ix.entries, poisoned)
		recycle.Fill(ix.sorted, poisoned)
		recycle.Scrub(ix.head, -1)
		recycle.Scrub(ix.next, -1)
	})
	w.ijs.Return(nil, func(ij *IndirectJoin) {
		ij.peak = max(ij.peak, len(ij.pairs))
		recycle.Scrub(ij.pairs, [2]int64{recycle.Word, recycle.Word})
	})
	w.vls.Return(nil, func(vl *ValueList) {
		vl.peak = max(vl.peak, vl.Len())
		recycle.Scrub(vl.ords, recycle.Word)
		recycle.Fill(vl.strs, recycle.Str)
		recycle.Scrub(vl.table, ^uint64(0))
	})
}

// Trim drops the memory far beyond what the structures held since the
// last Trim, and the free structures beyond what was lent at once
// (recycle.Keep, recycle.List.Trim). Call it after Release.
func (w *Workspace) Trim() {
	w.sls.Trim(func(sl *SingleList) {
		sl.refs, sl.peak = recycle.Keep(sl.refs, sl.peak), 0
	})
	w.ixs.Trim(func(ix *Index) {
		n := ix.peak
		ix.entries, ix.sorted = recycle.Keep(ix.entries, n), recycle.Keep(ix.sorted, n)
		ix.head, ix.next = recycle.Keep(ix.head, 2*n), recycle.Keep(ix.next, n)
		ix.peak = 0
	})
	w.ijs.Trim(func(ij *IndirectJoin) {
		ij.pairs, ij.peak = recycle.Keep(ij.pairs, ij.peak), 0
	})
	w.vls.Trim(func(vl *ValueList) {
		n := vl.peak
		vl.ords, vl.strs = recycle.Keep(vl.ords, n), recycle.Keep(vl.strs, n)
		vl.table, vl.peak = recycle.Keep(vl.table, 2*n), 0
	})
}
