package engine

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"pascalr/internal/calculus"
	"pascalr/internal/obs"
	"pascalr/internal/parser"
	"pascalr/internal/relation"
	"pascalr/internal/schema"
	"pascalr/internal/stats"
	"pascalr/internal/value"
)

// budgetDB holds two relations a and b of 100 elements each: a unique
// key k = 0..99 and a join column v = k mod 10.
func budgetDB(t *testing.T) *relation.DB {
	t.Helper()
	db := relation.NewDB()
	kt := schema.IntType("kt", 0, 99)
	vt := schema.IntType("vt", 0, 9)
	for _, name := range []string{"a", "b"} {
		rel := db.MustCreate(schema.MustRelSchema(name, []schema.Column{
			{Name: "k", Type: kt},
			{Name: "v", Type: vt},
		}, []string{"k"}))
		for i := 0; i < 100; i++ {
			if _, err := rel.Insert([]value.Value{value.Int(int64(i)), value.Int(int64(i % 10))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// joinActuals returns the output sizes of the combination phase's
// joins, in execution order, from a finished trace.
func joinActuals(t *testing.T, tr *obs.Trace) []int64 {
	t.Helper()
	var out []int64
	var walk func(s obs.SpanJSON)
	walk = func(s obs.SpanJSON) {
		if s.Name == "join" {
			n, err := strconv.ParseInt(s.Attrs["actual"], 10, 64)
			if err != nil {
				t.Fatalf("join span without an actual size: %v", s.Attrs)
			}
			out = append(out, n)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(tr.Snapshot().Root)
	return out
}

// budgetQuery compiles a two-conjunction selection over budgetDB and
// returns a function that evaluates it under S1 (no mutual restriction,
// no range extraction) with the given reference-tuple budget, reporting
// the counters, the join output sizes in execution order, and the
// error.
//
// The first conjunction, x.v = y.v, is one indirect join of 1000 pairs:
// it materializes 1000 reference tuples and joins nothing. The second
// builds two single lists of 10 references and an indirect join of 100
// pairs (120 tuples), then joins them twice, 10 tuples each. Its
// checkpoints see 1130 and 1140 cumulative tuples. The union of the two
// conjunctions then materializes 1000 more, so the last checkpoint sees
// 2140.
func budgetQuery(t *testing.T) func(max int64) (*stats.Counters, []int64, error) {
	t.Helper()
	db := budgetDB(t)
	sel, err := parser.ParseSelection(`[<x.k, y.k> OF EACH x IN a, EACH y IN b:
		(x.v = y.v) OR ((x.v = 1) AND (y.v = 1) AND (x.k = y.k))]`)
	if err != nil {
		t.Fatal(err)
	}
	checked, info, err := calculus.Check(sel, db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	return func(max int64) (*stats.Counters, []int64, error) {
		st := &stats.Counters{}
		tr := obs.NewTrace("")
		_, err := New(db, st).Eval(obs.With(context.Background(), tr.Root()), checked, info,
			Options{Strategies: S1, MaxRefTuples: max})
		tr.Finish()
		return st, joinActuals(t, tr), err
	}
}

// TestMaxRefTuplesCheckedAtFirstCrossingJoin: the reference-tuple
// budget is checked against the execution's cumulative materialization
// at every join, so a query stops at the first join that crosses it —
// not after every conjunction has materialized in full. A budget of
// 1125 is crossed by the first join of budgetQuery's second
// conjunction, and by no conjunction on its own.
func TestMaxRefTuplesCheckedAtFirstCrossingJoin(t *testing.T) {
	run := budgetQuery(t)

	// Unbudgeted, the plan has the shape the budget below is set for.
	st, joins, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(joins) != 2 || joins[0] != 10 || joins[1] != 10 {
		t.Fatalf("unbudgeted joins = %v, want [10 10]", joins)
	}

	const max = 1125
	st, joins, err = run(max)
	if err == nil || !strings.Contains(err.Error(), "exceeded 1125 reference tuples") {
		t.Fatalf("budget %d: err = %v, want the budget error", max, err)
	}
	if len(joins) != 1 {
		t.Fatalf("budget %d: %d joins ran, want 1: the error must come at the first join crossing the budget", max, len(joins))
	}
	if st.RefTuples > max+joins[0] {
		t.Fatalf("budget %d: %d reference tuples materialized, want at most %d (the budget plus the crossing join's output)",
			max, st.RefTuples, max+joins[0])
	}
}

// TestMaxRefTuplesBudgetIsInclusive: the budget is a strict bound on
// the cumulative count a checkpoint sees. budgetQuery's last
// checkpoint, after the union, sees 2140 tuples, so a budget of exactly
// 2140 admits the query and one tuple less stops it there, after both
// joins ran.
func TestMaxRefTuplesBudgetIsInclusive(t *testing.T) {
	run := budgetQuery(t)
	const last = 2140
	if _, joins, err := run(last); err != nil || len(joins) != 2 {
		t.Fatalf("budget %d: %d joins ran, err = %v; want both joins and no error", last, len(joins), err)
	}
	_, joins, err := run(last - 1)
	if err == nil || !strings.Contains(err.Error(), "exceeded 2139 reference tuples") {
		t.Fatalf("budget %d: err = %v, want the budget error", last-1, err)
	}
	if len(joins) != 2 {
		t.Fatalf("budget %d: %d joins ran, want 2: only the last checkpoint crosses it", last-1, len(joins))
	}
}

// TestMaxRefTuplesCheckedWithoutJoin: a conjunction that is a single
// piece materializes its reference tuples without joining anything,
// and the union of the conjunctions materializes them again; both are
// checked against the budget under every strategy set. The equi-join
// is one indirect join of two pairs, so a budget of one tuple stops it.
// The disjunction builds single lists of 3 and 1 references (4
// tuples) and a union of 4, so a budget of 4 passes every conjunction
// and only the union's check stops it.
func TestMaxRefTuplesCheckedWithoutJoin(t *testing.T) {
	db := tinyUniversity(t)
	for _, tc := range []struct {
		src string
		max int64
	}{
		{`[<e.ename, t.troom> OF EACH e IN employees, EACH t IN timetable: (e.enr = t.tenr)]`, 1},
		{`[<e.ename> OF EACH e IN employees: (e.estatus = professor) OR (e.enr = 2)]`, 4},
	} {
		_, checked, info := compileSrc(t, db, tc.src)
		for _, strat := range []Strategy{0, S1, AllStrategies} {
			_, err := New(db, nil).Eval(context.Background(), checked, info,
				Options{Strategies: strat, MaxRefTuples: tc.max})
			if want := fmt.Sprintf("exceeded %d reference tuples", tc.max); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s under %s with budget %d: err = %v, want the budget error", tc.src, strat, tc.max, err)
			}
			if _, err := New(db, nil).Eval(context.Background(), checked, info,
				Options{Strategies: strat, MaxRefTuples: 8}); err != nil {
				t.Errorf("%s under %s with budget 8: %v", tc.src, strat, err)
			}
		}
	}
}
