package storage

import (
	"pascalr/internal/colbatch"
	"pascalr/internal/value"
)

// memSlot is one in-memory slot: the stored tuple and its liveness.
// (The relation layer's old per-slot generation counter is gone: slots
// never revive, so "live" already implies "generation zero" — see the
// package comment.)
type memSlot struct {
	tuple []value.Value
	live  bool
}

// Memory is the default backend: the relation layer's original
// in-memory slot array and key directory, behind the Backend interface.
// It is volatile; durable databases pair a Disk backend with the WAL.
type Memory struct {
	slots []memSlot
	byKey map[string]int // encoded key -> slot index

	// ordCols is the columnar mirror: for every column whose values are
	// int-backed (integers, booleans, enums, references), ordCols[c][si]
	// holds the Ord payload of slot si's column c, maintained by Append
	// alongside the row. Batch scans fill from the mirror with
	// sequential 8-byte reads instead of chasing one scattered tuple
	// pointer per row — the difference between a memory-latency-bound
	// fill and a bandwidth-trivial one. Dead slots keep stale mirror
	// values; the gather skips them, so they are never read. Lazily
	// shaped by the first Append; ordOK[c] records whether column c has
	// stayed mirrorable, and mirrorOff abandons the mirror entirely if
	// tuple arity ever varies (impossible through the relation layer,
	// which checks tuples against one schema).
	ordCols   [][]int64
	ordOK     []bool
	mirrorOff bool
}

// NewMemory returns an empty in-memory backend.
func NewMemory() *Memory {
	return &Memory{byKey: make(map[string]int)}
}

// SlotSpan implements Backend.
func (m *Memory) SlotSpan() int { return len(m.slots) }

// Get implements Backend.
func (m *Memory) Get(si int) ([]value.Value, bool, error) {
	if si < 0 || si >= len(m.slots) {
		return nil, false, nil
	}
	s := &m.slots[si]
	if !s.live {
		return nil, false, nil
	}
	return s.tuple, true, nil
}

// Scan implements Backend.
func (m *Memory) Scan(lo, hi int, fn func(si int, tuple []value.Value) bool) error {
	if lo < 0 {
		lo = 0
	}
	if hi > len(m.slots) {
		hi = len(m.slots)
	}
	for si := lo; si < hi; si++ {
		if !m.slots[si].live {
			continue
		}
		if !fn(si, m.slots[si].tuple) {
			return nil
		}
	}
	return nil
}

// fillBlock is the row-block size of ScanBatchesInto's fill: small
// enough that a block's source rows stay cache-resident across the
// per-column passes, large enough to amortize the pointer-resolution
// pass.
const fillBlock = 256

// mirDst pairs a grown destination span with its columnar-mirror
// source; ordDst and valDst pair one with its source column index for
// the tuple-sourced blocked fill of ScanBatchesInto.
type mirDst struct {
	span []int64
	src  []int64
}

type ordDst struct {
	span []int64
	c    int
}

type valDst struct {
	span []value.Value
	c    int
}

// ScanBatchesInto implements Backend, closure-free: it gathers a window
// of live slot indexes from [lo, hi), materializes each requested
// column for the window in one sequential pass, and calls flush
// whenever b fills plus once for a trailing partial batch. Only the
// listed columns are materialized (nil = all columns). The caller's
// flush owns counting and resetting the batch. Filling via pre-grown per-window spans
// amortizes the slice bookkeeping to one grow per column per window
// instead of per row, and removes the three indirect calls per tuple
// of Scan plus a per-row callback; the row-major pass visits each
// scattered source row exactly once while its cache lines are hot.
// Int-backed columns are unboxed into int64 spans — 8-byte writes
// instead of 32-byte value copies, which is where most of the fill
// bandwidth goes.
func (m *Memory) ScanBatchesInto(lo, hi int, cols []int, b *colbatch.Batch, flush func() error) error {
	if lo < 0 {
		lo = 0
	}
	if hi > len(m.slots) {
		hi = len(m.slots)
	}
	mirDsts := make([]mirDst, 0, 8)
	ordDsts := make([]ordDst, 0, 8)
	valDsts := make([]valDst, 0, 8)
	var tbuf [fillBlock][]value.Value
	for si := lo; si < hi; {
		start := b.Len()
		for ; si < hi && !b.Full(); si++ {
			if m.slots[si].live {
				b.AppendSlot(si)
			}
		}
		if n := b.Len() - start; n > 0 {
			window := b.Slots()[start:]
			mirDsts, ordDsts, valDsts = mirDsts[:0], ordDsts[:0], valDsts[:0]
			add := func(c int) {
				if b.IsOrd(c) {
					if src := m.mirrored(c); src != nil {
						mirDsts = append(mirDsts, mirDst{b.GrowOrds(c, n), src})
					} else {
						ordDsts = append(ordDsts, ordDst{b.GrowOrds(c, n), c})
					}
				} else {
					valDsts = append(valDsts, valDst{b.GrowVals(c, n), c})
				}
			}
			if cols == nil {
				for c := 0; c < b.NumCols(); c++ {
					add(c)
				}
			} else {
				for _, c := range cols {
					add(c)
				}
			}
			// Mirrored columns gather straight from the columnar mirror:
			// ascending slot indexes over an 8-byte-stride array, which
			// the prefetcher handles, instead of a dependent load through
			// the row pointer.
			for _, d := range mirDsts {
				src := d.src
				for j, s := range window {
					d.span[j] = src[s]
				}
			}
			if len(ordDsts)+len(valDsts) > 0 {
				// Tuple-sourced columns fill in blocks: resolve a block
				// of row pointers once, then run one tight loop per
				// column over the block. The first column pass pulls each
				// scattered row into cache, where the remaining passes
				// find it — row-major locality — while each inner loop
				// keeps a fixed destination span and column index, free
				// of the per-row per-column bookkeeping a fused row-major
				// loop pays.
				for base := 0; base < n; base += fillBlock {
					k := n - base
					if k > fillBlock {
						k = fillBlock
					}
					rows := tbuf[:k]
					for j, s := range window[base : base+k] {
						rows[j] = m.slots[s].tuple
					}
					for _, d := range ordDsts {
						span := d.span[base : base+k]
						for j, t := range rows {
							span[j] = t[d.c].Ord()
						}
					}
					for _, d := range valDsts {
						span := d.span[base : base+k]
						for j, t := range rows {
							span[j] = t[d.c]
						}
					}
				}
			}
		}
		if b.Full() {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if b.Len() > 0 {
		return flush()
	}
	return nil
}

// LookupKey implements Backend.
func (m *Memory) LookupKey(enc string) (int, bool) {
	si, ok := m.byKey[enc]
	return si, ok
}

// Append implements Backend.
func (m *Memory) Append(enc string, tuple []value.Value) (int, error) {
	m.mirrorAppend(tuple)
	m.slots = append(m.slots, memSlot{tuple: tuple, live: true})
	si := len(m.slots) - 1
	m.byKey[enc] = si
	return si, nil
}

// mirrorAppend extends the columnar mirror with one tuple, keeping the
// invariant that len(ordCols[c]) == len(slots) for every column with
// ordOK[c]. A column's first non-int-backed value permanently demotes
// it to the tuple-sourced fill path.
func (m *Memory) mirrorAppend(tuple []value.Value) {
	if m.mirrorOff {
		return
	}
	if m.ordCols == nil {
		m.ordCols = make([][]int64, len(tuple))
		m.ordOK = make([]bool, len(tuple))
		for c := range tuple {
			m.ordOK[c] = true
		}
	}
	if len(tuple) != len(m.ordCols) {
		m.mirrorOff = true
		m.ordCols, m.ordOK = nil, nil
		return
	}
	for c, v := range tuple {
		if !m.ordOK[c] {
			continue
		}
		if !value.OrdKind(v.Kind()) {
			m.ordOK[c] = false
			m.ordCols[c] = nil
			continue
		}
		m.ordCols[c] = append(m.ordCols[c], v.Ord())
	}
}

// mirrored returns the mirror column for c, or nil when c is not
// mirrored (string column, demoted, or mirror off).
func (m *Memory) mirrored(c int) []int64 {
	if m.mirrorOff || c >= len(m.ordCols) || !m.ordOK[c] {
		return nil
	}
	return m.ordCols[c]
}

// Delete implements Backend.
func (m *Memory) Delete(si int, enc string) error {
	if si < 0 || si >= len(m.slots) {
		return nil
	}
	m.slots[si].live = false
	m.slots[si].tuple = nil
	delete(m.byKey, enc)
	return nil
}

// Reset implements Backend.
func (m *Memory) Reset() error {
	for i := range m.slots {
		if m.slots[i].live {
			m.slots[i].live = false
			m.slots[i].tuple = nil
		}
	}
	m.byKey = make(map[string]int)
	// The columnar mirror stays: slots are dead, not truncated, so the
	// mirror's slot alignment must survive for appends that follow.
	return nil
}

// Costs implements Backend.
func (m *Memory) Costs() CostProfile { return memoryCosts }

// Close implements Backend.
func (m *Memory) Close() error { return nil }
