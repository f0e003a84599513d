package relation

import (
	"testing"

	"pascalr/internal/schema"
	"pascalr/internal/value"
)

func statsDB(t *testing.T) (*DB, *Relation) {
	t.Helper()
	db := NewDB()
	rel := db.MustCreate(schema.MustRelSchema("ev", []schema.Column{
		{Name: "k", Type: schema.IntType("kt", 0, 1<<20)},
		{Name: "v", Type: schema.IntType("vt", 0, 1<<20)},
	}, []string{"k"}))
	return db, rel
}

// TestLiveStatsFollowMutations: inserts, deletes, and assignments keep
// the relation's statistics current without any Analyze call.
func TestLiveStatsFollowMutations(t *testing.T) {
	db, rel := statsDB(t)
	for i := 0; i < 100; i++ {
		if _, err := rel.Insert([]value.Value{value.Int(int64(i)), value.Int(int64(i % 5))}); err != nil {
			t.Fatal(err)
		}
	}
	est := db.Estimator()
	if got := est.Card("ev"); got != 100 {
		t.Fatalf("live Card = %v, want 100", got)
	}
	if got := est.DistinctValues("ev", "v"); got != 5 {
		t.Fatalf("live distinct(v) = %v, want 5", got)
	}
	if got := est.SelectivityConst("ev", "v", value.OpEq, value.Int(3)); got != 0.2 {
		t.Fatalf("live eq selectivity = %v, want 0.2", got)
	}
	for i := 0; i < 40; i++ {
		if ok, err := rel.Delete([]value.Value{value.Int(int64(i))}); err != nil || !ok {
			t.Fatalf("delete %d failed", i)
		}
	}
	if got := db.Estimator().Card("ev"); got != 60 {
		t.Fatalf("Card after deletes = %v, want 60", got)
	}
	if err := rel.Assign([][]value.Value{
		{value.Int(1), value.Int(9)},
		{value.Int(2), value.Int(9)},
	}); err != nil {
		t.Fatal(err)
	}
	est = db.Estimator()
	if got := est.Card("ev"); got != 2 {
		t.Fatalf("Card after assign = %v, want 2", got)
	}
	if got := est.DistinctValues("ev", "v"); got != 1 {
		t.Fatalf("distinct after assign = %v, want 1", got)
	}
	// No-op mutations leave the mutation counter alone.
	mut := rel.MutCount()
	rel.Delete([]value.Value{value.Int(42)}) // absent key
	if rel.MutCount() != mut {
		t.Fatal("no-op delete bumped the mutation counter")
	}
}

// TestBackgroundRebuildOnDrift: heavy churn on a bucketed column
// schedules an asynchronous re-bucketing; after Close (quiesce) the
// drift is repaired without any explicit Analyze.
func TestBackgroundRebuildOnDrift(t *testing.T) {
	db, rel := statsDB(t)
	// Enough distinct values to degrade to buckets, then churn well past
	// the drift threshold.
	for i := 0; i < 3000; i++ {
		if _, err := rel.Insert([]value.Value{value.Int(int64(i)), value.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if ts, err := rel.LiveStats(); err != nil || ts.Drifted() {
		t.Fatalf("drift not repaired by background rebuild after Close (err %v)", err)
	}
	// The rebuilt statistics describe the current contents.
	est := db.Estimator()
	if got := est.Card("ev"); got != 3000 {
		t.Fatalf("Card after background rebuild = %v, want 3000", got)
	}
	sel := est.SelectivityConst("ev", "v", value.OpLt, value.Int(1500))
	if sel < 0.4 || sel > 0.6 {
		t.Fatalf("post-rebuild range selectivity = %v, want ~0.5", sel)
	}
}

// TestEstimatorSnapshotGranularity: mutating one relation refreshes
// only that relation's snapshot.
func TestEstimatorSnapshotGranularity(t *testing.T) {
	db, rel := statsDB(t)
	other := db.MustCreate(schema.MustRelSchema("other", []schema.Column{
		{Name: "k", Type: schema.IntType("kt3", 0, 100)},
	}, []string{"k"}))
	for i := 0; i < 20; i++ {
		if _, err := rel.Insert([]value.Value{value.Int(int64(i)), value.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
		if _, err := other.Insert([]value.Value{value.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	e1 := db.Estimator()
	if _, err := rel.Insert([]value.Value{value.Int(999), value.Int(0)}); err != nil {
		t.Fatal(err)
	}
	e2 := db.Estimator()
	if e2.Table("other") != e1.Table("other") {
		t.Fatal("mutating ev discarded other's snapshot")
	}
	if e2.Table("ev") == e1.Table("ev") {
		t.Fatal("mutating ev did not refresh its snapshot")
	}
}

// TestAnalyzeRefreshesSnapshots: a statistics rebuild changes no
// contents but must still invalidate cached estimator snapshots —
// otherwise Analyze (and drift rebuilds) would never reach planners.
func TestAnalyzeRefreshesSnapshots(t *testing.T) {
	db, rel := statsDB(t)
	for i := 0; i < 1000; i++ {
		if _, err := rel.Insert([]value.Value{value.Int(int64(i)), value.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	e1 := db.Estimator() // caches the pre-rebuild snapshot
	e2 := db.Analyze()
	if e2.Table("ev") == e1.Table("ev") {
		t.Fatal("Analyze returned the stale pre-rebuild snapshot")
	}
	if got := e2.Table("ev").Rows(); got != 1000 {
		t.Fatalf("rebuilt snapshot rows = %d, want 1000", got)
	}
}

// TestLiveStatsUnderAssignError: a failing Assign (bad tuple mid-way)
// must leave statistics consistent with the relation contents.
func TestLiveStatsUnderAssignError(t *testing.T) {
	db, rel := statsDB(t)
	if err := rel.Assign([][]value.Value{
		{value.Int(1), value.Int(1)},
		{value.Int(1), value.Int(2)}, // key collision with different components
	}); err == nil {
		t.Fatal("expected assign error")
	}
	if got, want := db.Estimator().Card("ev"), float64(rel.Len()); got != want {
		t.Fatalf("stats Card = %v, relation Len = %v after failed assign", got, want)
	}
}
