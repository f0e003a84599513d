package algebra

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"pascalr/internal/stats"
	"pascalr/internal/value"
)

// ref is shorthand for the packed reference with relation id r and
// slot s.
func ref(r, s int) int64 { return value.Ref(r, s, 0).Ord() }

func row(words ...int64) []int64 { return words }

// rowsOf reads a relation's tuples in order, through Row.
func rowsOf(r *RefRel) [][]int64 {
	out := make([][]int64, r.Len())
	for k := range out {
		out[k] = slices.Clone(r.Row(k))
	}
	return out
}

// sortedRows reads a relation's tuples in lexicographic order, to
// compare contents order-independently.
func sortedRows(r *RefRel) [][]int64 {
	out := rowsOf(r)
	slices.SortFunc(out, slices.Compare[[]int64])
	return out
}

// has reports whether r holds the tuple.
func has(r *RefRel, tuple []int64) bool {
	for k := 0; k < r.Len(); k++ {
		if slices.Equal(r.Row(k), tuple) {
			return true
		}
	}
	return false
}

// newRel lends an empty relation from a workspace of its own.
func newRel(vars []string, st *stats.Counters) *RefRel {
	return new(Workspace).New(vars, st)
}

func mk(t *testing.T, vars []string, rows ...[]int64) *RefRel {
	t.Helper()
	r := newRel(vars, nil)
	for _, rw := range rows {
		r.Add(rw)
	}
	return r
}

func TestAddDedup(t *testing.T) {
	st := &stats.Counters{}
	r := newRel([]string{"a"}, st)
	if !r.Add(row(ref(0, 1))) {
		t.Errorf("first Add returned false")
	}
	if r.Add(row(ref(0, 1))) {
		t.Errorf("duplicate Add returned true")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
	if st.RefTuples != 1 {
		t.Errorf("RefTuples = %d", st.RefTuples)
	}
	if !has(r, row(ref(0, 1))) || has(r, row(ref(0, 2))) {
		t.Errorf("contents wrong")
	}
}

func TestAddCopies(t *testing.T) {
	r := newRel([]string{"a"}, nil)
	rw := row(ref(0, 1))
	r.Add(rw)
	rw[0] = ref(0, 9)
	if !has(r, row(ref(0, 1))) {
		t.Errorf("Add retained caller slice")
	}
}

func TestDuplicateVarsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("duplicate columns accepted")
		}
	}()
	newRel([]string{"a", "a"}, nil)
}

// joinT / cartesianT unwrap the context-taking operations
// for tests that never cancel.
func joinT(t *testing.T, a, b *RefRel) *RefRel {
	t.Helper()
	out, err := Join(context.Background(), a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func cartesianT(t *testing.T, a, b *RefRel) *RefRel {
	t.Helper()
	out, err := Cartesian(context.Background(), a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestJoinShared(t *testing.T) {
	// a(x,y): (1,10),(2,20); b(y,z): (10,100),(10,101),(30,300)
	a := mk(t, []string{"x", "y"},
		row(ref(0, 1), ref(1, 10)),
		row(ref(0, 2), ref(1, 20)))
	b := mk(t, []string{"y", "z"},
		row(ref(1, 10), ref(2, 100)),
		row(ref(1, 10), ref(2, 101)),
		row(ref(1, 30), ref(2, 300)))
	out := joinT(t, a, b)
	if !reflect.DeepEqual(out.Vars(), []string{"x", "y", "z"}) {
		t.Fatalf("vars = %v", out.Vars())
	}
	if out.Len() != 2 {
		t.Fatalf("join produced %d rows", out.Len())
	}
	for _, rw := range rowsOf(out) {
		if rw[0] != ref(0, 1) || rw[1] != ref(1, 10) {
			t.Errorf("unexpected join row %v", rw)
		}
	}
}

func TestJoinSymmetric(t *testing.T) {
	// Join must produce the same set regardless of which side is hashed
	// (i.e., of relative sizes).
	small := mk(t, []string{"x", "y"}, row(ref(0, 1), ref(1, 10)))
	big := mk(t, []string{"y", "z"},
		row(ref(1, 10), ref(2, 1)),
		row(ref(1, 10), ref(2, 2)),
		row(ref(1, 11), ref(2, 3)))
	ab := joinT(t, small, big)
	// Reverse roles: same shared var, flipped argument order. Column
	// order differs but contents on shared semantics must match.
	ba := joinT(t, big, small)
	if ab.Len() != 2 || ba.Len() != 2 {
		t.Fatalf("asymmetric join: %d vs %d", ab.Len(), ba.Len())
	}
	proj1, err := Project(context.Background(), ab, []string{"x", "y", "z"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	proj2, err := Project(context.Background(), ba, []string{"x", "y", "z"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedRows(proj1), sortedRows(proj2)) {
		t.Errorf("join not symmetric")
	}
}

func TestJoinNoSharedIsCartesian(t *testing.T) {
	a := mk(t, []string{"x"}, row(ref(0, 1)), row(ref(0, 2)))
	b := mk(t, []string{"y"}, row(ref(1, 1)), row(ref(1, 2)), row(ref(1, 3)))
	out := joinT(t, a, b)
	if out.Len() != 6 {
		t.Errorf("cartesian size = %d", out.Len())
	}
	cart := cartesianT(t, a, b)
	if !reflect.DeepEqual(sortedRows(cart), sortedRows(out)) {
		t.Errorf("Cartesian differs from Join")
	}
}

func TestCartesianPanicsOnShared(t *testing.T) {
	a := mk(t, []string{"x"}, row(ref(0, 1)))
	b := mk(t, []string{"x"}, row(ref(0, 1)))
	defer func() {
		if recover() == nil {
			t.Errorf("Cartesian with shared vars accepted")
		}
	}()
	Cartesian(context.Background(), a, b, nil)
}

func TestUnion(t *testing.T) {
	a := mk(t, []string{"x", "y"}, row(ref(0, 1), ref(1, 1)))
	// Same variables in different column order.
	b := mk(t, []string{"y", "x"},
		row(ref(1, 1), ref(0, 1)), // same tuple as a's, permuted
		row(ref(1, 2), ref(0, 2)))
	out, err := Union(context.Background(), a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Errorf("union size = %d, want 2 (duplicate must collapse)", out.Len())
	}
	// Mismatched vars error.
	c := mk(t, []string{"z"}, row(ref(2, 1)))
	if _, err := Union(context.Background(), a, c, nil); err == nil {
		t.Errorf("union with mismatched vars accepted")
	}
	d := mk(t, []string{"x", "z"}, row(ref(0, 1), ref(2, 1)))
	if _, err := Union(context.Background(), a, d, nil); err == nil {
		t.Errorf("union with differing var sets accepted")
	}
}

func TestProject(t *testing.T) {
	a := mk(t, []string{"x", "y"},
		row(ref(0, 1), ref(1, 1)),
		row(ref(0, 1), ref(1, 2)),
		row(ref(0, 2), ref(1, 3)))
	out, err := Project(context.Background(), a, []string{"x"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Errorf("projection size = %d", out.Len())
	}
	if _, err := Project(context.Background(), a, []string{"zz"}, nil); err == nil {
		t.Errorf("projection on absent var accepted")
	}
}

func TestDivide(t *testing.T) {
	// a(x,p): x1 paired with p1,p2; x2 with p1 only.
	a := mk(t, []string{"x", "p"},
		row(ref(0, 1), ref(1, 1)),
		row(ref(0, 1), ref(1, 2)),
		row(ref(0, 2), ref(1, 1)))
	divisor := []int64{ref(1, 1), ref(1, 2)}
	out, err := Divide(context.Background(), a, "p", divisor, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || out.Row(0)[0] != ref(0, 1) {
		t.Errorf("division = %v", rowsOf(out))
	}
	// Duplicate divisor entries must not double-count.
	out, err = Divide(context.Background(), a, "p", []int64{ref(1, 1), ref(1, 1)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Errorf("division with dup divisor = %d rows, want 2", out.Len())
	}
	// Empty divisor degrades to projection (documented behaviour).
	out, err = Divide(context.Background(), a, "p", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Errorf("division by empty = %d rows", out.Len())
	}
	// Absent variable errors.
	if _, err := Divide(context.Background(), a, "zz", divisor, nil); err == nil {
		t.Errorf("division on absent var accepted")
	}
}

func TestDivideMultiColumnRest(t *testing.T) {
	// Division grouping over two remaining columns.
	a := mk(t, []string{"x", "y", "p"},
		row(ref(0, 1), ref(3, 1), ref(1, 1)),
		row(ref(0, 1), ref(3, 1), ref(1, 2)),
		row(ref(0, 1), ref(3, 2), ref(1, 1)))
	out, err := Divide(context.Background(), a, "p", []int64{ref(1, 1), ref(1, 2)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("division = %d rows", out.Len())
	}
	if rw := out.Row(0); rw[0] != ref(0, 1) || rw[1] != ref(3, 1) {
		t.Errorf("division row = %v", rw)
	}
}

func TestFromRefsAndPairs(t *testing.T) {
	ws := &Workspace{}
	refs := []int64{ref(0, 1), ref(0, 2), ref(0, 1)}
	r := ws.FromRefs("x", refs, nil)
	if r.Len() != 2 {
		t.Errorf("FromRefs = %d", r.Len())
	}
	pairs := [][2]int64{{ref(0, 1), ref(1, 1)}, {ref(0, 1), ref(1, 1)}}
	p := ws.FromPairs("x", "y", pairs, nil)
	if p.Len() != 1 {
		t.Errorf("FromPairs = %d", p.Len())
	}
}

// Property: division is the inverse of Cartesian product — (A × D) ÷ D
// = A for non-empty D.
func TestDivideInvertsCartesian(t *testing.T) {
	f := func(aSlots, dSlots []uint8) bool {
		if len(dSlots) == 0 {
			return true
		}
		a := newRel([]string{"x"}, nil)
		for _, s := range aSlots {
			a.Add(row(ref(0, int(s))))
		}
		var divisor []int64
		d := newRel([]string{"p"}, nil)
		for _, s := range dSlots {
			r := ref(1, int(s))
			divisor = append(divisor, r)
			d.Add(row(r))
		}
		prod := cartesianT(t, a, d)
		q, err := Divide(context.Background(), prod, "p", divisor, nil)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(sortedRows(q), sortedRows(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestDistinctOnAndEstimateJoinSize(t *testing.T) {
	a := newRel([]string{"x", "s"}, nil)
	for i := 0; i < 12; i++ {
		a.Add(row(ref(0, i), ref(9, i%3))) // 3 distinct s values
	}
	b := newRel([]string{"s", "y"}, nil)
	for i := 0; i < 6; i++ {
		b.Add(row(ref(9, i%2), ref(1, i))) // 2 distinct s values
	}
	if d := a.DistinctOn([]string{"s"}); d != 3 {
		t.Errorf("DistinctOn(a.s) = %d, want 3", d)
	}
	if d := a.DistinctOn([]string{"nope"}); d != 0 {
		t.Errorf("DistinctOn(absent) = %d, want 0", d)
	}
	est, shared := EstimateJoinSize(a, b)
	if !shared {
		t.Fatal("EstimateJoinSize missed the shared variable")
	}
	// |a|*|b|/max(3,2) = 12*6/3 = 24.
	if est != 24 {
		t.Errorf("estimated join size = %v, want 24", est)
	}
	c := newRel([]string{"z"}, nil)
	c.Add(row(ref(2, 0)))
	est, shared = EstimateJoinSize(a, c)
	if shared || est != 12 {
		t.Errorf("disjoint estimate = (%v, %v), want (12, false)", est, shared)
	}
}

// Property: Join is the subset of the Cartesian product that agrees on
// the shared column.
func TestJoinSubsetOfCartesian(t *testing.T) {
	f := func(av, bv []uint8) bool {
		a := newRel([]string{"x", "s"}, nil)
		for i, s := range av {
			a.Add(row(ref(0, i), ref(9, int(s%4))))
		}
		b := newRel([]string{"s", "y"}, nil)
		for i, s := range bv {
			b.Add(row(ref(9, int(s%4)), ref(1, i)))
		}
		j := joinT(t, a, b)
		// Verify each joined row agrees and count against the naive loop.
		n := 0
		for _, ra := range rowsOf(a) {
			for _, rb := range rowsOf(b) {
				if ra[1] == rb[0] {
					n++
				}
			}
		}
		return j.Len() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestJoinCancellation: a cancelled context must abort a large product
// mid-materialization with ctx.Err().
func TestJoinCancellation(t *testing.T) {
	rows := make([][]int64, 0, 3000)
	for i := 0; i < 3000; i++ {
		rows = append(rows, row(ref(0, i)))
	}
	a := mk(t, []string{"x"}, rows...)
	brows := make([][]int64, 0, 3000)
	for i := 0; i < 3000; i++ {
		brows = append(brows, row(ref(1, i)))
	}
	b := mk(t, []string{"y"}, brows...)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Join(ctx, a, b, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled cartesian join: got %v, want context.Canceled", err)
	}
}
