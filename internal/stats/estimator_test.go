package stats

import (
	"fmt"
	"math"
	"testing"

	"pascalr/internal/value"
)

func almost(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("%s = %v, want %v", what, got, want)
	}
}

func buildEstimator() *Estimator {
	e := NewEstimator()
	ts := NewTableStats("emp", []string{"id", "grade"})
	for i := 0; i < 100; i++ {
		ts.ObserveInsert([]value.Value{value.Int(int64(i)), value.Int(int64(i % 4))})
	}
	e.AddTable(ts)
	return e
}

func TestTableStatsCollection(t *testing.T) {
	e := buildEstimator()
	ts := e.Table("emp")
	if ts.Rows() != 100 {
		t.Fatalf("rows = %d, want 100", ts.Rows())
	}
	if d := ts.Col("id").DistinctCount(); d != 100 {
		t.Errorf("distinct(id) = %d, want 100", d)
	}
	if d := ts.Col("grade").DistinctCount(); d != 4 {
		t.Errorf("distinct(grade) = %d, want 4", d)
	}
	mn, mx, ok := ts.Col("id").Bounds()
	if !ok || mn.AsInt() != 0 || mx.AsInt() != 99 {
		t.Errorf("id extrema = [%v, %v] ok=%v, want [0, 99]", mn, mx, ok)
	}
	if m := ts.Col("grade").Mode(); m != ModeExact {
		t.Errorf("grade mode = %s, want exact", m)
	}
}

func TestCardAndDistinct(t *testing.T) {
	e := buildEstimator()
	almost(t, "Card(emp)", e.Card("emp"), 100)
	almost(t, "Card(unknown)", e.Card("nope"), 1)
	almost(t, "DistinctValues(emp.grade)", e.DistinctValues("emp", "grade"), 4)
	almost(t, "DistinctValues(unknown)", e.DistinctValues("emp", "nope"), 0)
}

func TestSelectivityConst(t *testing.T) {
	e := buildEstimator()
	almost(t, "grade = c", e.SelectivityConst("emp", "grade", value.OpEq, value.Int(2)), 0.25)
	almost(t, "grade <> c", e.SelectivityConst("emp", "grade", value.OpNe, value.Int(2)), 0.75)
	// id ranges over [0, 99]: id < 50 is exactly half the rows.
	got := e.SelectivityConst("emp", "id", value.OpLt, value.Int(50))
	if got < 0.4 || got > 0.6 {
		t.Errorf("id < 50 selectivity = %v, want ~0.5", got)
	}
	// Beyond the observed maximum everything qualifies.
	almost(t, "id <= 200", e.SelectivityConst("emp", "id", value.OpLe, value.Int(200)), 1)
	// Inclusive comparisons at the domain extrema are exact from the
	// frequency table.
	almost(t, "grade <= 0", e.SelectivityConst("emp", "grade", value.OpLe, value.Int(0)), 0.25)
	almost(t, "grade >= 3", e.SelectivityConst("emp", "grade", value.OpGe, value.Int(3)), 0.25)
	// Unknown column falls back to the defaults.
	almost(t, "unknown =", e.SelectivityConst("emp", "nope", value.OpEq, value.Int(1)), DefaultEqSel)
	almost(t, "unknown <", e.SelectivityConst("emp", "nope", value.OpLt, value.Int(1)), DefaultRangeSel)
}

func TestJoinSelectivity(t *testing.T) {
	e := buildEstimator()
	other := NewTableStats("dept", []string{"gid"})
	for i := 0; i < 10; i++ {
		other.ObserveInsert([]value.Value{value.Int(int64(i % 2))})
	}
	e.AddTable(other)
	// Exact distributions: grade uniform over {0..3} (f=0.25 each), gid
	// uniform over {0,1} (f=0.5 each); match probability
	// 0.25·0.5 + 0.25·0.5 = 0.25.
	almost(t, "equi-join", e.JoinSelectivity("emp", "grade", value.OpEq, "dept", "gid"), 0.25)
	almost(t, "ne-join", e.JoinSelectivity("emp", "grade", value.OpNe, "dept", "gid"), DefaultNeSel)
	almost(t, "range-join", e.JoinSelectivity("emp", "grade", value.OpLt, "dept", "gid"), DefaultRangeSel)
}

func TestJoinSelectivitySkewAndDisjoint(t *testing.T) {
	e := NewEstimator()
	l := NewTableStats("l", []string{"v"})
	for i := 0; i < 100; i++ {
		l.ObserveInsert([]value.Value{value.Int(0)}) // all rows the heavy hitter
	}
	r := NewTableStats("r", []string{"v"})
	for i := 0; i < 100; i++ {
		r.ObserveInsert([]value.Value{value.Int(int64(i % 10))})
	}
	e.AddTable(l)
	e.AddTable(r)
	// Every left row matches the 10% of right rows with v=0: true join
	// selectivity 0.1; the uniform model says 1/max(1,10) = 0.1 here
	// too, but skew the right side and they diverge:
	almost(t, "hh-join", e.JoinSelectivity("l", "v", value.OpEq, "r", "v"), 0.1)

	d := NewTableStats("d", []string{"v"})
	for i := 0; i < 50; i++ {
		d.ObserveInsert([]value.Value{value.Int(int64(1000 + i))}) // disjoint range
	}
	e.AddTable(d)
	if got := e.JoinSelectivity("l", "v", value.OpEq, "d", "v"); got > 1e-3 {
		t.Errorf("disjoint equi-join selectivity = %v, want ~0", got)
	}
	// The uniform view cannot see the disjointness.
	if got := e.Uniform().JoinSelectivity("l", "v", value.OpEq, "d", "v"); got < 0.01 {
		t.Errorf("uniform disjoint equi-join = %v, want 1/max(d)", got)
	}
}

func TestNilEstimatorDefaults(t *testing.T) {
	var e *Estimator
	almost(t, "nil Card", e.Card("x"), 1)
	almost(t, "nil eq", e.SelectivityConst("x", "y", value.OpEq, value.Int(1)), DefaultEqSel)
	if e.Table("x") != nil {
		t.Error("nil estimator returned a table")
	}
	if e.Uniform() != nil {
		t.Error("nil estimator's uniform view is non-nil")
	}
}

func TestSinglePointColumn(t *testing.T) {
	e := NewEstimator()
	ts := NewTableStats("one", []string{"k"})
	for i := 0; i < 5; i++ {
		ts.ObserveInsert([]value.Value{value.Int(7)})
	}
	e.AddTable(ts)
	almost(t, "k < 7", e.SelectivityConst("one", "k", value.OpLt, value.Int(7)), 0)
	almost(t, "k <= 7", e.SelectivityConst("one", "k", value.OpLe, value.Int(7)), 1)
	almost(t, "k > 3", e.SelectivityConst("one", "k", value.OpGt, value.Int(3)), 1)
}

func TestMixedKindColumnFallsBack(t *testing.T) {
	e := NewEstimator()
	ts := NewTableStats("mix", []string{"k"})
	ts.ObserveInsert([]value.Value{value.Int(1)})
	ts.ObserveInsert([]value.Value{value.String_("a")})
	e.AddTable(ts)
	almost(t, "mixed <", e.SelectivityConst("mix", "k", value.OpLt, value.Int(5)), DefaultRangeSel)
}

// TestSkewedEqualitySelectivity is the histogram's reason to exist: a
// heavy-hitter value takes most of the rows, the frequency table knows
// it, and the uniform view does not.
func TestSkewedEqualitySelectivity(t *testing.T) {
	e := NewEstimator()
	ts := NewTableStats("ev", []string{"kind"})
	for i := 0; i < 1000; i++ {
		k := int64(0) // 90% heavy hitter
		if i%10 == 9 {
			k = int64(1 + i%7)
		}
		ts.ObserveInsert([]value.Value{value.Int(k)})
	}
	e.AddTable(ts)
	hist := e.SelectivityConst("ev", "kind", value.OpEq, value.Int(0))
	if hist < 0.85 || hist > 0.95 {
		t.Errorf("histogram heavy-hitter selectivity = %v, want ~0.9", hist)
	}
	uni := e.Uniform().SelectivityConst("ev", "kind", value.OpEq, value.Int(0))
	if uni > 0.2 {
		t.Errorf("uniform heavy-hitter selectivity = %v, want 1/distinct (small)", uni)
	}
}

// TestDeletesKeepExactStats verifies the frequency table stays exact
// under deletions — low-distinct columns never need a rebuild.
func TestDeletesKeepExactStats(t *testing.T) {
	e := NewEstimator()
	ts := NewTableStats("d", []string{"v"})
	for i := 0; i < 100; i++ {
		ts.ObserveInsert([]value.Value{value.Int(int64(i % 4))})
	}
	for i := 0; i < 50; i++ { // delete every v=0 and v=1 tuple's worth
		ts.ObserveDelete([]value.Value{value.Int(int64(i % 2))})
	}
	e.AddTable(ts)
	if ts.Rows() != 50 {
		t.Fatalf("rows after deletes = %d, want 50", ts.Rows())
	}
	// 25 of each value remained for v=2,3; v=0,1 dropped to 0 live... the
	// arithmetic: inserts gave 25 each; deletes removed 25 of v=0 and 25
	// of v=1.
	almost(t, "v = 2 after deletes", e.SelectivityConst("d", "v", value.OpEq, value.Int(2)), 0.5)
	if d := ts.Col("v").DistinctCount(); d != 2 {
		t.Errorf("distinct after deletes = %d, want 2", d)
	}
	if ts.Drifted() {
		t.Error("exact-mode table reported drift")
	}
	// Bounds shrink too: only v ∈ {2, 3} remain live.
	mn, mx, ok := ts.Col("v").Bounds()
	if !ok || mn.AsInt() != 2 || mx.AsInt() != 3 {
		t.Errorf("bounds after deletes = [%v, %v] ok=%v, want [2, 3]", mn, mx, ok)
	}
}

// TestEquiDepthDegrade pushes a column past MaxExactValues and checks
// the bucketed estimates stay close on a skewed distribution.
func TestEquiDepthDegrade(t *testing.T) {
	e := NewEstimator()
	ts := NewTableStats("big", []string{"v"})
	n := 4000
	for i := 0; i < n; i++ {
		v := int64(i % 1000) // 1000 distinct > MaxExactValues
		if i%2 == 0 {
			v = 7 // heavy hitter: half the rows
		}
		ts.ObserveInsert([]value.Value{value.Int(v)})
	}
	e.AddTable(ts)
	cs := ts.Col("v")
	if m := cs.Mode(); m != ModeEquiDepth {
		t.Fatalf("mode = %s, want equi-depth", m)
	}
	hh := e.SelectivityConst("big", "v", value.OpEq, value.Int(7))
	if hh < 0.3 || hh > 0.7 {
		t.Errorf("bucketed heavy-hitter selectivity = %v, want ~0.5", hh)
	}
	uni := e.Uniform().SelectivityConst("big", "v", value.OpEq, value.Int(7))
	if uni > 0.05 {
		t.Errorf("uniform heavy-hitter selectivity = %v, want tiny", uni)
	}
	// Range fraction: v < 500 covers the heavy hitter plus ~half the
	// tail ≈ 0.5 + 0.25.
	r := e.SelectivityConst("big", "v", value.OpLt, value.Int(500))
	if r < 0.55 || r > 0.95 {
		t.Errorf("bucketed range selectivity = %v, want ~0.75", r)
	}
	d := cs.DistinctCount()
	if d < 500 || d > 2000 {
		t.Errorf("sketched distinct = %d, want ~1000", d)
	}
}

// TestRebuildFromScan checks the rebuild accumulator: true quantile
// boundaries, exact distinct, reset drift.
func TestRebuildFromScan(t *testing.T) {
	ts := NewTableStats("r", []string{"v"})
	// Dirty the live stats with a different distribution first.
	for i := 0; i < 600; i++ {
		ts.ObserveInsert([]value.Value{value.Int(int64(i))})
	}
	rb := ts.NewRebuild()
	for i := 0; i < 2000; i++ {
		rb.Add([]value.Value{value.Int(int64(i % 300 * 10))})
	}
	rb.Commit()
	if ts.Rows() != 2000 {
		t.Fatalf("rows after rebuild = %d, want 2000", ts.Rows())
	}
	cs := ts.Col("v")
	if m := cs.Mode(); m != ModeEquiDepth {
		t.Fatalf("mode after rebuild = %s, want equi-depth", m)
	}
	if d := cs.DistinctCount(); d < 250 || d > 350 {
		t.Errorf("distinct after rebuild = %d, want 300", d)
	}
	if ts.Drifted() {
		t.Error("freshly rebuilt table reported drift")
	}
	e := NewEstimator()
	e.AddTable(ts)
	got := e.SelectivityConst("r", "v", value.OpLt, value.Int(1500))
	if got < 0.4 || got > 0.6 {
		t.Errorf("post-rebuild range selectivity = %v, want ~0.5", got)
	}
}

// TestDriftTrigger checks the drift threshold fires only for bucketed
// tables with enough churn.
func TestDriftTrigger(t *testing.T) {
	ts := NewTableStats("t", []string{"v"})
	rb := ts.NewRebuild()
	for i := 0; i < 2000; i++ {
		rb.Add([]value.Value{value.Int(int64(i))})
	}
	rb.Commit()
	if ts.Drifted() {
		t.Fatal("no mutations yet, but drifted")
	}
	for i := 0; i < 500; i++ {
		ts.ObserveInsert([]value.Value{value.Int(int64(3000 + i))})
	}
	if !ts.Drifted() {
		t.Error("500 mutations on a 2000-row bucketed table should drift")
	}
}

// TestDegradeResetsDrift checks the insert that degrades a column out
// of exact mode does not itself trip the drift threshold: degrade()
// builds true quantiles from the complete frequency table, so the table
// is as fresh as a rebuild at that instant and an organically growing
// relation must not pay a redundant full rescan at the degrade point.
func TestDegradeResetsDrift(t *testing.T) {
	ts := NewTableStats("g", []string{"v"})
	for i := 0; i <= MaxExactValues; i++ {
		if ts.ObserveInsert([]value.Value{value.Int(int64(i))}) {
			t.Fatalf("insert %d reported drift during organic growth", i)
		}
	}
	if m := ts.Col("v").Mode(); m != ModeEquiDepth {
		t.Fatalf("mode after %d distinct values = %s, want equi-depth", MaxExactValues+1, m)
	}
	if ts.Drifted() {
		t.Fatal("freshly degraded table reported drift")
	}
	// Enough further churn must still trigger the rebuild.
	for i := 0; i < minDriftMutations; i++ {
		ts.ObserveInsert([]value.Value{value.Int(int64(MaxExactValues + 1 + i))})
	}
	if !ts.Drifted() {
		t.Errorf("%d mutations after the degrade point should drift", minDriftMutations)
	}
}

// TestNonOrdinalDegradeArmsDrift checks a high-distinct string column
// (bounds-only after degrading: no buckets) still arms the drift
// rebuild — its insert-only sketch overcounts under deletion churn,
// which only a rescan repairs — and that the rebuild restores an exact
// distinct count.
func TestNonOrdinalDegradeArmsDrift(t *testing.T) {
	ts := NewTableStats("s", []string{"name"})
	name := func(i int) []value.Value {
		return []value.Value{value.String_(fmt.Sprintf("v%03d", i))}
	}
	for i := 0; i < 500; i++ {
		ts.ObserveInsert(name(i))
	}
	if m := ts.Col("name").Mode(); m != ModeBounds {
		t.Fatalf("mode after 500 distinct strings = %s, want bounds", m)
	}
	drifted := false
	for i := 0; i < 400; i++ {
		if ts.ObserveDelete(name(i)) {
			drifted = true
		}
	}
	if !drifted {
		t.Fatal("deletion churn on a degraded non-ordinal column never armed the rebuild")
	}
	rb := ts.NewRebuild()
	for i := 400; i < 500; i++ {
		rb.Add(name(i))
	}
	rb.Commit()
	if d := ts.Col("name").DistinctCount(); d != 100 {
		t.Errorf("distinct after rebuild = %d, want 100 exactly", d)
	}
	if ts.Drifted() {
		t.Error("freshly rebuilt table reported drift")
	}
}

// TestSnapshotIsolation checks a snapshot is unaffected by later
// mutations of the live statistics.
func TestSnapshotIsolation(t *testing.T) {
	ts := NewTableStats("s", []string{"v"})
	for i := 0; i < 10; i++ {
		ts.ObserveInsert([]value.Value{value.Int(int64(i))})
	}
	snap := ts.Snapshot()
	for i := 10; i < 100; i++ {
		ts.ObserveInsert([]value.Value{value.Int(int64(i))})
	}
	if snap.Rows() != 10 {
		t.Errorf("snapshot rows = %d, want 10", snap.Rows())
	}
	if ts.Rows() != 100 {
		t.Errorf("live rows = %d, want 100", ts.Rows())
	}
	if d := snap.Col("v").DistinctCount(); d != 10 {
		t.Errorf("snapshot distinct = %d, want 10", d)
	}
}
