package storage

import (
	"fmt"
	"slices"

	"pascalr/internal/colbatch"
	"pascalr/internal/value"
)

// colRun is an append-only run of rows stored column by column: one
// []int64 of ordinals per int-backed column (integers, booleans, enums,
// references), one []string per string column, and per row its slot
// index, encoded key and liveness. The memtable is one run; the SSTable
// writer encodes its live rows, and compaction decodes the live rows of
// the tables it merges into one.
//
// The first add fixes the column kinds and the enumeration type name of
// enum columns; a later row that disagrees is refused, as the relation
// layer checks every tuple against one schema. Strings stay Go strings,
// so reading one never allocates.
type colRun struct {
	kinds []value.Kind
	enums []string
	ords  [][]int64  // per column; nil for string columns
	strs  [][]string // per column; nil for int-backed columns
	slots []int      // ascending
	keys  []string   // encoded primary key
	live  []bool
}

// len returns the number of rows, live or dead.
func (m *colRun) len() int { return len(m.slots) }

// shape fixes the run's columns, unless a row already did.
func (m *colRun) shape(kinds []value.Kind, enums []string) {
	if m.kinds == nil {
		m.kinds, m.enums = kinds, enums
		m.ords = make([][]int64, len(kinds))
		m.strs = make([][]string, len(kinds))
	}
}

// add appends the live row tuple at slot si under the encoded key enc,
// copying its cells. A refused row leaves the run as it was.
func (m *colRun) add(si int, enc string, tuple []value.Value) error {
	if m.kinds == nil {
		kinds, enums, err := columnsOf(tuple)
		if err != nil {
			return err
		}
		m.shape(kinds, enums)
	}
	if len(tuple) != len(m.kinds) {
		return fmt.Errorf("slot %d has %d columns, the run %d", si, len(tuple), len(m.kinds))
	}
	for c, v := range tuple {
		if k := m.kinds[c]; v.Kind() != k || (k == value.KindEnum && v.EnumType() != m.enums[c]) {
			m.truncate(m.len())
			return fmt.Errorf("slot %d column %d holds %s, the run's column is %s %s", si, c, v, k, m.enums[c])
		}
		if m.kinds[c] == value.KindString {
			m.strs[c] = append(m.strs[c], v.AsString())
		} else {
			m.ords[c] = append(m.ords[c], v.Ord())
		}
	}
	m.slots = append(m.slots, si)
	m.keys = append(m.keys, enc)
	m.live = append(m.live, true)
	return nil
}

// addBlock appends rows [r, r+k) of a parsed block, all live. A run
// that fails to decode a block is left torn: the caller drops it.
func (m *colRun) addBlock(v *blockView, r, k int) error {
	m.shape(v.kinds, v.enums)
	if !slices.Equal(v.kinds, m.kinds) || !slices.Equal(v.enums, m.enums) {
		return fmt.Errorf("block columns %v %q, the run's %v %q", v.kinds, v.enums, m.kinds, m.enums)
	}
	for c, kind := range m.kinds {
		if kind != value.KindString {
			n := len(m.ords[c])
			m.ords[c] = append(m.ords[c], make([]int64, k)...)
			v.ords(c, m.ords[c][n:], r)
			continue
		}
		n := len(m.strs[c])
		m.strs[c] = append(m.strs[c], make([]string, k)...)
		if err := v.strs(v.colOff[c], r, m.strs[c][n:]); err != nil {
			return err
		}
	}
	n := len(m.keys)
	m.keys = append(m.keys, make([]string, k)...)
	if err := v.strs(v.colOff[len(v.kinds)], r, m.keys[n:]); err != nil {
		return err
	}
	for j := r; j < r+k; j++ {
		m.slots = append(m.slots, v.slot(j))
		m.live = append(m.live, true)
	}
	return nil
}

// truncate drops the rows from n on.
func (m *colRun) truncate(n int) {
	for c, k := range m.kinds {
		if k == value.KindString {
			m.strs[c] = m.strs[c][:n]
		} else {
			m.ords[c] = m.ords[c][:n]
		}
	}
	m.slots, m.keys, m.live = m.slots[:n], m.keys[:n], m.live[:n]
}

// kill marks row i dead and clears its strings, so that the run keeps
// no deleted string alive.
func (m *colRun) kill(i int) {
	m.live[i] = false
	m.keys[i] = ""
	for c, k := range m.kinds {
		if k == value.KindString {
			m.strs[c][i] = ""
		}
	}
}

// cell returns row i's cell of column c.
func (m *colRun) cell(c, i int) value.Value {
	if m.kinds[c] == value.KindString {
		return value.String_(m.strs[c][i])
	}
	return value.MakeOrd(m.kinds[c], m.ords[c][i], m.enums[c])
}

// row fills dst, grown as needed, with row i's cells.
func (m *colRun) row(i int, dst []value.Value) []value.Value {
	if cap(dst) < len(m.kinds) {
		dst = make([]value.Value, len(m.kinds))
	}
	dst = dst[:len(m.kinds)]
	for c := range dst {
		dst[c] = m.cell(c, i)
	}
	return dst
}

// fill appends rows [r, r+k) to b: slots first, then each column in
// cols copied as one span.
func (m *colRun) fill(b *colbatch.Batch, cols []int, r, k int) error {
	for _, si := range m.slots[r : r+k] {
		b.AppendSlot(si)
	}
	for _, c := range cols {
		switch {
		case b.IsOrd(c) != value.OrdKind(m.kinds[c]):
			return kindMismatch(b, c, m.kinds[c])
		case b.IsOrd(c):
			copy(b.GrowOrds(c, k), m.ords[c][r:r+k])
		default:
			copy(b.GrowStrs(c, k), m.strs[c][r:r+k])
		}
	}
	return nil
}

// kindMismatch refuses a fill of column c, stored as kind, into a
// batch that declared the other vector for it.
func kindMismatch(b *colbatch.Batch, c int, kind value.Kind) error {
	want := "strings"
	if b.IsOrd(c) {
		want = "ordinals"
	}
	return fmt.Errorf("storage: scan wants %s column %d as %s", kind, c, want)
}

// liveStretches calls fn(r, k) for every maximal stretch [r, r+k) of
// the rows of [r, end) that dead does not reject (every row when dead is
// nil).
func liveStretches(r, end int, dead func(j int) bool, fn func(r, k int) error) error {
	for r < end {
		k := end - r
		if dead != nil {
			for r < end && dead(r) {
				r++
			}
			for k = 0; r+k < end && !dead(r+k); k++ {
			}
		}
		if k > 0 {
			if err := fn(r, k); err != nil {
				return err
			}
		}
		r += k
	}
	return nil
}

// fillLive appends the live stretches of rows [r, end) to b, cut at the
// batch's capacity, each handed to fill(r, k); flush is called whenever
// b fills.
func fillLive(b *colbatch.Batch, r, end int, dead func(j int) bool, fill func(r, k int) error, flush func() error) error {
	return liveStretches(r, end, dead, func(r, k int) error {
		for k > 0 {
			n := min(k, b.Cap()-b.Len())
			if err := fill(r, n); err != nil {
				return err
			}
			r, k = r+n, k-n
			if b.Full() {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		return nil
	})
}
