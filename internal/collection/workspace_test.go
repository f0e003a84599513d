package collection

import (
	"testing"

	"pascalr/internal/stats"
	"pascalr/internal/value"
)

// fill gives each structure of one execution n elements, probing the
// index both ways so its chains and sorted copy are built.
func fill(w *Workspace, n int) (*SingleList, *Index, *IndirectJoin, *ValueList) {
	sl, ix := w.SingleList("v"), w.Index("r", "a")
	ij, vl := w.IndirectJoin("l", "r"), w.ValueList(value.KindInt, "")
	for i := range n {
		sl.Add(ref(i))
		ix.Add(value.Int(int64(i)), ref(i))
		ij.Add(ref(i), ref(i))
		vl.Add(value.Int(int64(i)))
	}
	var st stats.Counters
	ix.Probe(&st, value.OpEq, value.Int(0), func(int64) {})
	ix.Probe(&st, value.OpLt, value.Int(1), func(int64) {})
	return sl, ix, ij, vl
}

// TestWorkspaceDropsLargeMemory: structures that one large execution
// grew keep their memory until a trim, and a trim after only small
// executions leaves them no more than those need (within recycle.Keep's
// bounds).
func TestWorkspaceDropsLargeMemory(t *testing.T) {
	var w Workspace
	fill(&w, 100_000)
	w.Release()
	w.Trim()
	sl, ix, ij, vl := fill(&w, 10)
	w.Release()
	if c := cap(ix.entries); c < 100_000 {
		t.Fatalf("index entries kept capacity %d before the trim, want the large execution's", c)
	}
	w.Trim()
	const limit = 1024 // what 10 elements grow, far below the large execution's 100 000
	for name, c := range map[string]int{
		"single list": cap(sl.refs), "index entries": cap(ix.entries),
		"index sorted copy": cap(ix.sorted), "index heads": cap(ix.head),
		"index chains": cap(ix.next), "indirect join": cap(ij.pairs),
		"value list": cap(vl.ords), "value list table": cap(vl.table),
	} {
		if c > limit {
			t.Errorf("%s keeps capacity %d after a small execution", name, c)
		}
	}
}
