package enginetest

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"pascalr/internal/baseline"
	"pascalr/internal/calculus"
	"pascalr/internal/engine"
	"pascalr/internal/parser"
	"pascalr/internal/recycle"
	"pascalr/internal/relation"
	"pascalr/internal/stats"
	"pascalr/internal/value"
)

// poison switches recycle.Poison on for the rest of the test: every
// structure an execution's workspace takes back is overwritten with
// garbage, so a read of returned memory changes a result, a counter or
// a permanent index instead of going unnoticed.
func poison(t *testing.T) {
	recycle.Poison = true
	t.Cleanup(func() { recycle.Poison = false })
}

// runPoisoned runs every table query twice on one engine through one
// compiled plan — materialized, then through the cursor — under all 32
// strategy sets and the static and histogram-cost planners, with
// returned workspace memory poisoned. Both runs must return the
// baseline's rows and count alike; the static runs must also match
// counters.golden under label.
func runPoisoned(t *testing.T, label string, db *relation.DB) {
	t.Helper()
	ctx := context.Background()
	est := db.Estimator()
	for _, q := range UniversityQueries {
		sel, info := checked(t, db, q.Src)
		want, err := baseline.Eval(sel, info, db)
		if err != nil {
			t.Fatalf("%s: baseline: %v", q.Name, err)
		}
		wantKey := RelKey(want)
		for _, strat := range StrategySets() {
			for _, e := range []*stats.Estimator{nil, est} {
				cfg := fmt.Sprintf("%s/%s [%s cost=%v]", label, q.Name, strat, e != nil)
				st := &stats.Counters{}
				eng := engine.New(db, st)
				plan, err := eng.Compile(sel, info, engine.Options{Strategies: strat, CostBased: e != nil, Estimator: e})
				if err != nil {
					t.Fatalf("%s: compile: %v", cfg, err)
				}
				rows, err := plan.Eval(ctx)
				if err != nil {
					t.Fatalf("%s: run 1: %v", cfg, err)
				}
				if RelKey(rows) != wantKey {
					t.Fatalf("%s: run 1 returned %d rows unlike the baseline's %d", cfg, len(rows), len(want))
				}
				first := st.Fingerprint()
				if e == nil {
					checkGolden(t, label+"/"+q.Name, strat, len(want), first)
				}
				st.Reset()
				key, err := cursorKey(plan, ctx)
				if err != nil {
					t.Fatalf("%s: run 2: %v", cfg, err)
				}
				if key != wantKey {
					t.Fatalf("%s: run 2 (cursor) differs from the baseline", cfg)
				}
				if second := st.Fingerprint(); second != first {
					t.Fatalf("%s: run 2 counted\n%s\nrun 1\n%s", cfg, second, first)
				}
			}
		}
	}
}

func checked(t *testing.T, db *relation.DB, src string) (*calculus.Selection, *calculus.Info) {
	t.Helper()
	sel, err := parser.ParseSelection(src)
	if err != nil {
		t.Fatal(err)
	}
	c, info, err := calculus.Check(sel, db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	return c, info
}

// TestWorkspacePoisonedReuse: executions that build in memory earlier
// executions returned, poisoned, return the baseline's rows and count
// exactly what counters.golden pins.
func TestWorkspacePoisonedReuse(t *testing.T) {
	poison(t)
	runPoisoned(t, "university", universityDB(t, 12))
}

// TestWorkspacePermanentIndexUntouched: with permanent indexes on the
// join columns (the table of TestPermanentIndexWorkload), poisoned
// reuse returns the right rows, and no permanent index loses or
// changes an entry: a workspace never takes back the relation's memory.
func TestWorkspacePermanentIndexUntouched(t *testing.T) {
	poison(t)
	db := universityDB(t, 10)
	cols := []struct{ rel, col string }{{"courses", "cnr"}, {"timetable", "tcnr"}, {"employees", "enr"}}
	entries := func() []string {
		var out []string
		for _, c := range cols {
			ix, ok := db.MustRelation(c.rel).Index(c.col)
			if !ok {
				t.Fatalf("no permanent index on %s.%s", c.rel, c.col)
			}
			ix.Entries(func(v, ref value.Value) { out = append(out, c.rel+" "+v.String()+" "+ref.String()) })
		}
		return out
	}
	for _, c := range cols {
		if _, err := db.MustRelation(c.rel).CreateIndex(c.col); err != nil {
			t.Fatal(err)
		}
	}
	before := entries()
	runPoisoned(t, "permindex", db)
	if after := entries(); !slices.Equal(after, before) {
		t.Fatalf("permanent indexes changed: %d entries before, %d after", len(before), len(after))
	}
}

// TestWorkspaceEvalRowsSurvive: the rows a materialized Eval returns
// belong to the caller; later executions of the same plan, which reuse
// the returned workspace, leave them intact.
func TestWorkspaceEvalRowsSurvive(t *testing.T) {
	poison(t)
	db := universityDB(t, 12)
	ctx := context.Background()
	for _, q := range UniversityQueries {
		sel, info := checked(t, db, q.Src)
		for _, strat := range []engine.Strategy{0, engine.AllStrategies} {
			plan, err := engine.New(db, nil).Compile(sel, info, engine.Options{Strategies: strat})
			if err != nil {
				t.Fatal(err)
			}
			kept, err := plan.Eval(ctx)
			if err != nil {
				t.Fatal(err)
			}
			keptKey := RelKey(kept)
			for range 3 {
				if _, err := plan.Eval(ctx); err != nil {
					t.Fatal(err)
				}
				if _, err := cursorKey(plan, ctx); err != nil {
					t.Fatal(err)
				}
			}
			if RelKey(kept) != keptKey {
				t.Fatalf("%s [%s]: rows of an earlier Eval changed under later executions", q.Name, strat)
			}
		}
	}
}
