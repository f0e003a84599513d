// Package colbatch holds the columnar batch and selection-bitmap types
// of the vectorized collection phase.
//
// A Batch materializes a fixed-capacity window of a relation scan in
// column-major order, with row provenance kept as compact slot indexes
// from which reference values are minted on demand. Columns of an
// int-backed kind (integers, booleans, enumerations, references) are
// stored unboxed as raw []int64 ordinal vectors — a quarter the width
// of a boxed value, and the shape the branchless FilterOrdBits kernel
// consumes; string columns stay boxed. Predicates evaluate as bulk
// operations over whole columns, producing selection Bitmaps (one
// uint64 word per 64 rows) that combine with bitwise AND/OR/AND-NOT
// instead of branching per tuple.
//
// Bitmap maintains one invariant throughout: bits at positions >= Len()
// are always zero, so Count, Empty, and word-level combination never
// need to mask the tail word explicitly.
package colbatch

import (
	"math/bits"

	"pascalr/internal/value"
)

// Batch is a fixed-capacity columnar window over a relation scan. Row
// provenance is one int32 slot index per row plus the scanned
// relation's id (set once per scan with Configure) — a quarter the
// width of a materialized reference value — and Ref mints the full
// reference on demand, so only rows that survive selection ever pay
// for one. Columns whose kind Configure declares int-backed are stored
// unboxed in ords; the rest (and every column of an unconfigured
// batch) are boxed in vals.
type Batch struct {
	slots []int32
	relID int
	kinds []value.Kind // per-column kinds; nil (unconfigured) boxes everything
	enums []string     // enumeration type name per enum column ("" otherwise)
	ords  [][]int64
	vals  [][]value.Value
	cap   int
}

// New returns an empty batch holding up to capacity rows of ncols
// columns, with every column boxed until Configure declares kinds.
func New(ncols, capacity int) *Batch {
	if capacity < 1 {
		capacity = 1
	}
	b := &Batch{
		slots: make([]int32, 0, capacity),
		ords:  make([][]int64, ncols),
		vals:  make([][]value.Value, ncols),
		cap:   capacity,
	}
	for c := range b.vals {
		b.vals[c] = make([]value.Value, 0, capacity)
	}
	return b
}

// Configure prepares the batch for one scan: relID is the relation Ref
// mints references against, kinds declares each column's storage class
// (int-backed kinds go unboxed; nil boxes everything), and enums names
// the enumeration type of each enum column (for reconstruction). The
// kinds and enums slices are retained, not copied — callers pass
// immutable schema-derived data. Configuring once per scan keeps
// pooled batches safe to reuse across relations.
func (b *Batch) Configure(relID int, kinds []value.Kind, enums []string) {
	b.relID = relID
	b.kinds = kinds
	b.enums = enums
	for c, k := range kinds {
		if value.OrdKind(k) && b.ords[c] == nil {
			b.ords[c] = make([]int64, 0, b.cap)
		}
	}
}

// IsOrd reports whether column c is stored unboxed.
func (b *Batch) IsOrd(c int) bool {
	return c < len(b.kinds) && value.OrdKind(b.kinds[c])
}

func (b *Batch) enumOf(c int) string {
	if c < len(b.enums) {
		return b.enums[c]
	}
	return ""
}

// AppendSlot appends only the slot index of one row, deferring column
// materialization to GrowOrds/GrowVals: the storage backend appends a
// stretch of live slot indexes first, then fills each masked column in
// one pass. Slot indexes fit int32 by construction — an in-memory slot
// array approaching 2^31 rows exhausts memory long before it exhausts
// the index space.
func (b *Batch) AppendSlot(si int) {
	b.slots = append(b.slots, int32(si))
}

// Slots returns the slot indexes of the batch's rows. Shared storage —
// read-only.
func (b *Batch) Slots() []int32 { return b.slots }

// GrowOrds extends unboxed column c by n values and returns the new
// span for the caller to fill — the column half of the bulk-fill fast
// path. Rows appended via AppendSlot have no column values until a
// grown span covering them is filled.
func (b *Batch) GrowOrds(c, n int) []int64 {
	col := b.ords[c]
	col = col[:len(col)+n]
	b.ords[c] = col
	return col[len(col)-n:]
}

// GrowVals is GrowOrds for boxed columns.
func (b *Batch) GrowVals(c, n int) []value.Value {
	col := b.vals[c]
	col = col[:len(col)+n]
	b.vals[c] = col
	return col[len(col)-n:]
}

// Len returns the number of rows currently in the batch.
func (b *Batch) Len() int { return len(b.slots) }

// Cap returns the row capacity the batch was created with.
func (b *Batch) Cap() int { return b.cap }

// NumCols returns the number of columns per row.
func (b *Batch) NumCols() int { return len(b.vals) }

// Full reports whether the batch reached capacity.
func (b *Batch) Full() bool { return len(b.slots) >= b.cap }

// Reset empties the batch, retaining capacity.
func (b *Batch) Reset() {
	b.slots = b.slots[:0]
	for c := range b.ords {
		if b.ords[c] != nil {
			b.ords[c] = b.ords[c][:0]
		}
		b.vals[c] = b.vals[c][:0]
	}
}

// Ref mints the reference value of row i from the relation id and the
// row's slot index. Generation is always zero, matching the relation
// layer: slots never revive, so liveness alone decides staleness.
func (b *Batch) Ref(i int) value.Value {
	return value.Ref(b.relID, int(b.slots[i]), 0)
}

// Ords returns unboxed column c. Shared storage — read-only.
func (b *Batch) Ords(c int) []int64 { return b.ords[c] }

// Vals returns boxed column c. Shared storage — read-only.
func (b *Batch) Vals(c int) []value.Value { return b.vals[c] }

// ColVal returns column c of row i as a value, reconstructing it from
// the ordinal vector for unboxed columns.
func (b *Batch) ColVal(c, i int) value.Value {
	if b.IsOrd(c) {
		return value.MakeOrd(b.kinds[c], b.ords[c][i], b.enumOf(c))
	}
	return b.vals[c][i]
}

// Bitmap is a selection vector over the rows of one batch: bit i set
// means row i survives. Bits at positions >= Len() are always zero.
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap returns an all-zero bitmap over n rows.
func NewBitmap(n int) *Bitmap {
	bm := &Bitmap{}
	bm.ClearAll(n)
	return bm
}

func wordsFor(n int) int { return (n + 63) / 64 }

// SetAll resizes the bitmap to n rows with every bit set. Tail bits of
// the last word (positions >= n) stay zero.
func (bm *Bitmap) SetAll(n int) {
	bm.resize(n)
	for i := range bm.words {
		bm.words[i] = ^uint64(0)
	}
	bm.maskTail()
}

// ClearAll resizes the bitmap to n rows with every bit clear.
func (bm *Bitmap) ClearAll(n int) {
	bm.resize(n)
	for i := range bm.words {
		bm.words[i] = 0
	}
}

func (bm *Bitmap) resize(n int) {
	w := wordsFor(n)
	if cap(bm.words) < w {
		bm.words = make([]uint64, w)
	} else {
		bm.words = bm.words[:w]
	}
	bm.n = n
}

// maskTail zeroes bits at positions >= n in the last word.
func (bm *Bitmap) maskTail() {
	if r := bm.n % 64; r != 0 && len(bm.words) > 0 {
		bm.words[len(bm.words)-1] &= (uint64(1) << uint(r)) - 1
	}
}

// Len returns the number of rows the bitmap covers.
func (bm *Bitmap) Len() int { return bm.n }

// Words exposes the backing words for bulk filtering. The invariant
// that bits >= Len() are zero must be preserved by writers that only
// clear bits (never set); anything else must call through Set.
func (bm *Bitmap) Words() []uint64 { return bm.words }

// Has reports whether bit i is set.
func (bm *Bitmap) Has(i int) bool {
	return bm.words[i/64]&(uint64(1)<<uint(i%64)) != 0
}

// Set sets bit i. i must be < Len().
func (bm *Bitmap) Set(i int) {
	bm.words[i/64] |= uint64(1) << uint(i%64)
}

// Clear clears bit i.
func (bm *Bitmap) Clear(i int) {
	bm.words[i/64] &^= uint64(1) << uint(i%64)
}

// Count returns the number of set bits.
func (bm *Bitmap) Count() int {
	n := 0
	for _, w := range bm.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether no bit is set.
func (bm *Bitmap) Empty() bool {
	for _, w := range bm.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// And intersects bm with o (same length).
func (bm *Bitmap) And(o *Bitmap) {
	for i := range bm.words {
		bm.words[i] &= o.words[i]
	}
}

// Or unions o into bm (same length).
func (bm *Bitmap) Or(o *Bitmap) {
	for i := range bm.words {
		bm.words[i] |= o.words[i]
	}
}

// AndNot clears in bm every bit set in o (same length).
func (bm *Bitmap) AndNot(o *Bitmap) {
	for i := range bm.words {
		bm.words[i] &^= o.words[i]
	}
}

// CopyFrom makes bm an exact copy of o.
func (bm *Bitmap) CopyFrom(o *Bitmap) {
	bm.resize(o.n)
	copy(bm.words, o.words)
}

// Do calls fn for each set bit in ascending order. fn returning false
// stops the iteration.
func (bm *Bitmap) Do(fn func(i int) bool) {
	for wi, w := range bm.words {
		for w != 0 {
			i := wi*64 + bits.TrailingZeros64(w)
			if !fn(i) {
				return
			}
			w &= w - 1
		}
	}
}

// Filter calls fn for each set bit in ascending order and clears the
// bits fn rejects. An error from fn aborts immediately, leaving the
// bitmap in a partially filtered state.
func (bm *Bitmap) Filter(fn func(i int) (bool, error)) error {
	for wi := range bm.words {
		w := bm.words[wi]
		for w != 0 {
			bit := w & -w
			keep, err := fn(wi*64 + bits.TrailingZeros64(w))
			if err != nil {
				return err
			}
			if !keep {
				bm.words[wi] &^= bit
			}
			w &= w - 1
		}
	}
	return nil
}
