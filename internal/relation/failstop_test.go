package relation_test

import (
	"context"
	"testing"

	"pascalr/internal/calculus"
	"pascalr/internal/engine"
	"pascalr/internal/parser"
	"pascalr/internal/relation"
	"pascalr/internal/schema"
	"pascalr/internal/stats"
	"pascalr/internal/storage"
	"pascalr/internal/value"
)

// TestFailStopFencesEmptinessFold: a refused delete of a relation's
// only element leaves the relation empty in memory, though recovery
// restores the element. The engine's Lemma 1 emptiness fold must not
// read that state: it would fold SOME y IN b to FALSE and answer with
// no rows and no error, without scanning anything. The query must
// return the sticky error instead.
func TestFailStopFencesEmptinessFold(t *testing.T) {
	d, err := relation.OpenDB(t.TempDir(), storage.Options{Fsync: storage.SyncNever, CheckpointWALBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	idType := schema.IntType("idtype", 1, 99)
	var b *relation.Relation
	for _, name := range []string{"a", "b"} {
		r, err := d.Create(schema.MustRelSchema(name, []schema.Column{{Name: "id", Type: idType}}, []string{"id"}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Insert([]value.Value{value.Int(1)}); err != nil {
			t.Fatal(err)
		}
		b = r
	}
	if err := relation.CloseWAL(d); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Delete([]value.Value{value.Int(1)}); err == nil {
		t.Fatal("unloggable delete succeeded")
	}
	sticky := d.Err()
	parsed, err := parser.ParseSelection(`[<x.id> OF EACH x IN a: SOME y IN b (y.id = x.id)]`)
	if err != nil {
		t.Fatal(err)
	}
	sel, info, err := calculus.Check(parsed, d.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.New(d, &stats.Counters{}).Eval(context.Background(), sel, info, engine.Options{})
	if err != sticky {
		n := -1
		if res != nil {
			n = len(res)
		}
		t.Fatalf("query after the WAL failure = %d rows, %v; want the sticky error %v", n, err, sticky)
	}
}

// TestFailStopFencesLiveStats: a refused delete of a relation's only
// element leaves its live statistics at 0 rows, though recovery
// restores the element. LiveStats must return the sticky error
// instead of that count.
func TestFailStopFencesLiveStats(t *testing.T) {
	d, err := relation.OpenDB(t.TempDir(), storage.Options{Fsync: storage.SyncNever, CheckpointWALBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := d.Create(schema.MustRelSchema("solo", []schema.Column{{Name: "id", Type: schema.IntType("idtype", 1, 99)}}, []string{"id"}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solo.Insert([]value.Value{value.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if ts, err := solo.LiveStats(); err != nil || ts.Rows() != 1 {
		t.Fatalf("LiveStats before the failure = %v, %v; want 1 row", ts, err)
	}
	if err := relation.CloseWAL(d); err != nil {
		t.Fatal(err)
	}
	if _, err := solo.Delete([]value.Value{value.Int(1)}); err == nil {
		t.Fatal("unloggable delete succeeded")
	}
	if ts, err := solo.LiveStats(); err == nil || err != d.Err() {
		t.Fatalf("LiveStats after the WAL failure = %v, %v; want the sticky error %v", ts, err, d.Err())
	}
}

// TestFailStopFencesCostPlanning: a refused insert leaves the live
// statistics counting a row recovery will not reproduce. Compiling a
// cost-based selection plans from those statistics, so it must return
// the sticky error instead of a plan.
func TestFailStopFencesCostPlanning(t *testing.T) {
	d, err := relation.OpenDB(t.TempDir(), storage.Options{Fsync: storage.SyncNever, CheckpointWALBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := d.Create(schema.MustRelSchema("r", []schema.Column{{Name: "id", Type: schema.IntType("idtype", 1, 99)}}, []string{"id"}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Insert([]value.Value{value.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := relation.CloseWAL(d); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Insert([]value.Value{value.Int(2)}); err == nil {
		t.Fatal("unloggable insert succeeded")
	}
	sticky := d.Err()
	parsed, err := parser.ParseSelection(`[<x.id> OF EACH x IN r: x.id > 1]`)
	if err != nil {
		t.Fatal(err)
	}
	sel, info, err := calculus.Check(parsed, d.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(d, &stats.Counters{})
	if _, err := eng.Compile(sel, info, engine.Options{CostBased: true}); err != sticky {
		t.Fatalf("cost-based compile after the WAL failure = %v; want the sticky error %v", err, sticky)
	}
	if _, err := eng.Explain(sel, engine.Options{CostBased: true}); err != sticky {
		t.Fatalf("cost-based explain after the WAL failure = %v; want the sticky error %v", err, sticky)
	}
}
