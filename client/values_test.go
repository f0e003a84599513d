package client

import (
	"fmt"
	"testing"

	"pascalr/internal/protocol"
)

// blockRows is a drained cursor holding one fetched block of n rows: a
// small integer, a string, a boolean and an enumeration column.
func blockRows(n int) *Rows {
	r := &Rows{cols: []string{"n", "s", "b", "e"}, done: true}
	r.blk = protocol.Block{Rows: n, Cols: []protocol.Column{
		{Kind: protocol.ColInt}, {Kind: protocol.ColString}, {Kind: protocol.ColBool},
		{Kind: protocol.ColEnum, Labels: []string{"freshman", "sophomore", "junior"}},
	}}
	for i := 0; i < n; i++ {
		c := r.blk.Cols
		c[0].Ints = append(c[0].Ints, int64(i%200))
		c[1].Strs = append(c[1].Strs, fmt.Sprint("s", i))
		c[2].Bools = append(c[2].Bools, i%2 == 0)
		c[3].Codes = append(c[3].Codes, uint32(i%3))
	}
	return r
}

// TestValuesKeptRows: the rows Values returns are the caller's — rows
// kept from earlier Next calls stay intact after later calls and after
// one of them is appended to.
func TestValuesKeptRows(t *testing.T) {
	r := blockRows(50)
	var kept [][]any
	for r.Next() {
		kept = append(kept, r.Values())
	}
	for i := range kept {
		kept[i] = append(kept[i], "appended")
	}
	labels := []string{"freshman", "sophomore", "junior"}
	for i, row := range kept {
		want := []any{int64(i % 200), fmt.Sprint("s", i), i%2 == 0, labels[i%3], "appended"}
		if fmt.Sprint(row) != fmt.Sprint(want) {
			t.Fatalf("row %d = %v, want %v", i, row, want)
		}
	}
}

// TestValuesAllocs: draining a block through Values allocates one slab
// per block, nothing per row, when no value boxes into an allocation of
// its own (small integers, booleans, enumeration labels).
func TestValuesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	r := blockRows(256)
	r.blk.Cols = append(r.blk.Cols[:1], r.blk.Cols[2:]...) // no strings
	r.cols = []string{"n", "b", "e"}
	allocs := testing.AllocsPerRun(20, func() {
		r.i, r.slab = 0, nil
		for r.Next() {
			r.Values()
		}
	})
	if allocs > 1 {
		t.Fatalf("draining a block of 256 rows through Values made %.0f allocations, want 1", allocs)
	}
}
