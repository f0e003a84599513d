package engine

import (
	"hash/maphash"

	"pascalr/internal/value"
)

// rowSeed seeds the construction set's row hash for the process.
var rowSeed = maphash.MakeSeed()

// rowHash hashes one projected row. It is a variable so a test can
// force every row onto one hash and exercise the Equal fallback.
var rowHash = hashRow

func hashRow(row []value.Value) uint64 {
	h := uint64(len(row))
	for _, v := range row {
		h = (h ^ v.Hash(rowSeed)) * 0xFF51AFD7ED558CCD
		h ^= h >> 29
	}
	return h
}

// arenaBlock is the number of rows one arena block holds.
const arenaBlock = 256

// rowSet is the construction phase's exact duplicate filter: the
// distinct projected rows in insertion order, stored in a flat arena
// of fixed-size blocks and found through an open-addressing table of
// 64-bit row hashes. Every hash match is confirmed with value.Equal,
// so a collision costs a comparison, never a lost row.
type rowSet struct {
	w      int             // values per row
	blocks [][]value.Value // row k is blocks[k/arenaBlock][(k%arenaBlock)*w:][:w]
	n      int             // rows stored
	// table holds tag<<32 | row+1 per occupied slot, 0 when empty; the
	// tag is the high half of the row's hash and also picks its home
	// slot, so growing or truncating rehashes without the rows.
	table []uint64
	peak  int // the most rows held since a workspace last trimmed it
}

// reset empties the set for rows of w values, keeping its arena blocks
// and table.
func (s *rowSet) reset(w int) {
	s.w, s.n = w, 0
	for i := range s.blocks {
		s.blocks[i] = s.blocks[i][:0]
	}
	clear(s.table)
}

// row returns stored row k. The slice aliases the arena and must not
// be modified.
func (s *rowSet) row(k int) []value.Value {
	if s.w == 0 {
		return []value.Value{}
	}
	o := (k % arenaBlock) * s.w
	return s.blocks[k/arenaBlock][o : o+s.w : o+s.w]
}

// add copies row into the set unless an Equal row is already there and
// reports whether it was new. more bounds the rows that can still
// arrive (this one included); it sizes new blocks and the first table,
// so a small result never pays for a full block.
func (s *rowSet) add(row []value.Value, more int) bool {
	if len(s.table) == 0 {
		size := 16
		for size < 2*min(more, 2048) {
			size <<= 1
		}
		s.table = make([]uint64, size)
	} else if 2*(s.n+1) > len(s.table) {
		s.rehash(2*len(s.table), s.n)
	}
	tag := uint32(rowHash(row) >> 32)
	mask := uint32(len(s.table) - 1)
	for p := tag & mask; ; p = (p + 1) & mask {
		e := s.table[p]
		if e == 0 {
			s.table[p] = uint64(tag)<<32 | uint64(s.n+1)
			break
		}
		if uint32(e>>32) == tag && rowsEqual(s.row(int(uint32(e))-1), row) {
			return false
		}
	}
	if s.w > 0 {
		if s.n%arenaBlock == 0 {
			s.startBlock(min(more, arenaBlock) * s.w)
		}
		b := &s.blocks[s.n/arenaBlock]
		*b = append(*b, row...)
	}
	s.n++
	return true
}

// startBlock readies the block row s.n starts, with room for size
// values: a kept block when it is large enough, else a new one.
func (s *rowSet) startBlock(size int) {
	k := s.n / arenaBlock
	switch {
	case k == len(s.blocks):
		s.blocks = append(s.blocks, make([]value.Value, 0, size))
	case cap(s.blocks[k]) < size:
		s.blocks[k] = make([]value.Value, 0, size)
	}
}

// truncate drops every row from n on; the blocks it empties stay for
// the rows that replace them.
func (s *rowSet) truncate(n int) {
	if n >= s.n {
		return
	}
	s.n = n
	if s.w > 0 {
		nb := (n + arenaBlock - 1) / arenaBlock
		for i := nb; i < len(s.blocks); i++ {
			s.blocks[i] = s.blocks[i][:0]
		}
		if k := n % arenaBlock; k != 0 {
			s.blocks[nb-1] = s.blocks[nb-1][:k*s.w]
		}
	}
	s.rehash(len(s.table), n)
}

// rehash rebuilds the table at the given size from the entries of rows
// below keep.
func (s *rowSet) rehash(size, keep int) {
	old := s.table
	s.table = make([]uint64, size)
	mask := uint32(size - 1)
	for _, e := range old {
		if e == 0 || int(uint32(e)) > keep {
			continue
		}
		p := uint32(e>>32) & mask
		for s.table[p] != 0 {
			p = (p + 1) & mask
		}
		s.table[p] = e
	}
}

func rowsEqual(a, b []value.Value) bool {
	for i := range a {
		if !value.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
