package engine

import (
	"context"
	"math/rand"
	"testing"

	"pascalr/internal/baseline"
	"pascalr/internal/calculus"
	"pascalr/internal/stats"
	"pascalr/internal/workload"
)

// TestPermanentIndexSkipsScan reproduces the paper's section 3.2 note:
// with a permanent index, the collection phase's index-building step is
// omitted — and a scan that existed only for that build disappears.
func TestPermanentIndexSkipsScan(t *testing.T) {
	join := &calculus.Selection{
		Proj: []calculus.Field{{Var: "c", Col: "ctitle"}, {Var: "t", Col: "tenr"}, {Var: "t", Col: "tday"}},
		Free: []calculus.Decl{
			{Var: "c", Range: &calculus.RangeExpr{Rel: "courses"}},
			{Var: "t", Range: &calculus.RangeExpr{Rel: "timetable"}},
		},
		Pred: &calculus.Cmp{
			L: calculus.Field{Var: "c", Col: "cnr"}, Op: 0, /* = */
			R: calculus.Field{Var: "t", Col: "tcnr"},
		},
	}

	run := func(withIndex bool) (*stats.Counters, int) {
		db := workload.MustUniversity(workload.DefaultConfig(20))
		if withIndex {
			if _, err := db.MustRelation("courses").CreateIndex("cnr"); err != nil {
				t.Fatal(err)
			}
		}
		checked, info, err := calculus.Check(join, db.Catalog())
		if err != nil {
			t.Fatal(err)
		}
		st := &stats.Counters{}
		eng := New(db, st)
		res, err := eng.Eval(context.Background(), checked, info, Options{Strategies: S1})
		if err != nil {
			t.Fatal(err)
		}
		return st, len(res)
	}

	stNo, rowsNo := run(false)
	stYes, rowsYes := run(true)
	if rowsNo != rowsYes {
		t.Fatalf("result changed with permanent index: %d vs %d", rowsNo, rowsYes)
	}
	if stNo.BaseScans["courses"] != 1 {
		t.Errorf("without index, courses scanned %d times", stNo.BaseScans["courses"])
	}
	if stYes.BaseScans["courses"] != 0 {
		t.Errorf("with permanent index, courses still scanned %d times", stYes.BaseScans["courses"])
	}
	if stYes.BaseScans["timetable"] != 1 {
		t.Errorf("probing relation scanned %d times", stYes.BaseScans["timetable"])
	}
}

// TestPermanentIndexWithSampleQuery runs the full paper query with
// permanent indexes on every join column under every strategy level.
func TestPermanentIndexWithSampleQuery(t *testing.T) {
	for _, strat := range ladder {
		db := tinyUniversity(t)
		for _, ic := range [][2]string{
			{"timetable", "tcnr"}, {"timetable", "tenr"}, {"papers", "penr"}, {"courses", "cnr"},
		} {
			if _, err := db.MustRelation(ic[0]).CreateIndex(ic[1]); err != nil {
				t.Fatal(err)
			}
		}
		res, _ := evalWith(t, db, workload.SampleSelection(), strat)
		got := names(t, res)
		if len(got) != 2 || got[0] != "cyd" || got[1] != "dan" {
			t.Errorf("%s with permanent indexes: %v", strat, got)
		}
	}
}

// TestDifferentialWithPermanentIndexes re-runs the randomized
// differential test with permanent indexes on every column of every
// relation: results must match the oracle exactly, including the
// extended-range filtering of permanent-index probes.
func TestDifferentialWithPermanentIndexes(t *testing.T) {
	subsets := []Strategy{0, S1, S3, S1 | S2, S3 | S4, S1 | S2 | S3, AllStrategies}
	seeds := int64(250)
	if testing.Short() {
		seeds = 60
	}
	for seed := int64(500); seed < 500+seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := workload.RandomDB(rng, 6)
		for i := 0; i < 3; i++ {
			rel := db.MustRelation([]string{"r0", "r1", "r2"}[i])
			for _, col := range []string{"a", "b"} {
				if _, err := rel.CreateIndex(col); err != nil {
					t.Fatal(err)
				}
			}
		}
		sel := workload.RandomSelection(rng)
		checked, info, err := calculus.Check(sel, db.Catalog())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, err := baseline.Eval(checked, info, db)
		if err != nil {
			t.Fatalf("seed %d: baseline: %v", seed, err)
		}
		wantKey := resultKey(want)
		for _, strat := range subsets {
			eng := New(db, nil)
			got, err := eng.Eval(context.Background(), checked, info, Options{Strategies: strat})
			if err != nil {
				t.Fatalf("seed %d %s: %v\nquery: %s", seed, strat, err, checked)
			}
			if resultKey(got) != wantKey {
				t.Fatalf("seed %d %s: mismatch with permanent indexes\nquery: %s\nwant %d got %d",
					seed, strat, checked, len(want), len(got))
			}
		}
	}
}

// TestLazyRangeListsPreserveSemantics checks the corner the lazy range
// lists must not break: an empty base relation for a constrained free
// variable still yields an empty result even though no range list is
// materialized.
func TestLazyRangeListsPreserveSemantics(t *testing.T) {
	db := tinyUniversity(t)
	if err := db.MustRelation("timetable").Assign(nil); err != nil {
		t.Fatal(err)
	}
	sel := workload.SubexprSelection() // free c, free t; t's relation empty
	res, _ := evalWith(t, db, sel, S1|S2|S3|S4)
	if len(res) != 0 {
		t.Errorf("join over empty relation returned %d rows", len(res))
	}
}
