package algebra

import (
	"context"
	"testing"

	"pascalr/internal/stats"
)

// TestWorkspaceDropsLargeMemory: relations and scratch memory that one
// large execution grew keep it until a trim, and a trim after only
// small executions leaves them no more than those need (within
// recycle.Keep's bounds); a scratch set reused after a large input
// clears only what each use needs.
func TestWorkspaceDropsLargeMemory(t *testing.T) {
	w := &Workspace{}
	ctx := context.Background()
	execute := func(n int) []*RefRel {
		refs := make([]int64, n)
		pairs := make([][2]int64, n)
		for i := range n {
			refs[i] = int64(i)
			pairs[i] = [2]int64{int64(i), int64(i % 3)}
		}
		st := &stats.Counters{}
		a, b := w.FromRefs("x", refs, st), w.FromPairs("x", "y", pairs, st)
		j, err := Join(ctx, a, b, st)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Divide(ctx, b, "y", []int64{0, 1, 2}, st)
		if err != nil {
			t.Fatal(err)
		}
		j.DistinctOn([]string{"x"})
		return []*RefRel{a, b, j, d}
	}
	execute(100_000)
	w.Release(nil)
	w.Trim()
	small := execute(10)
	if n := len(w.distinct.table); n != tableSize(10) {
		t.Errorf("DistinctOn over 10 rows after one over 100 000 cleared %d slots, want %d", n, tableSize(10))
	}
	w.Release(nil)
	if c := cap(small[0].set.data); c < 100_000 {
		t.Fatalf("FromRefs kept capacity %d before the trim, want the large execution's", c)
	}
	w.Trim()
	const limit = 1024 // what 10 rows grow, far below the large execution's 100 000
	caps := map[string]int{
		"Join's heads": cap(w.head), "Join's chains": cap(w.next), "Divide's counts": cap(w.hits),
	}
	for name, s := range map[string]*tupleSet{
		"DistinctOn's set": &w.distinct, "Divide's divisor set": &w.divs,
		"Divide's group set": &w.groups, "Divide's pair set": &w.seen,
		"FromRefs": &small[0].set, "FromPairs": &small[1].set, "Join": &small[2].set, "Divide": &small[3].set,
	} {
		caps[name+" rows"], caps[name+" table"] = cap(s.data), cap(s.table)
	}
	for name, c := range caps {
		if c > limit {
			t.Errorf("%s keeps capacity %d after a small execution", name, c)
		}
	}
}
