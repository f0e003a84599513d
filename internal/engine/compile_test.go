package engine

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"pascalr/internal/baseline"
	"pascalr/internal/calculus"
	"pascalr/internal/relation"
	"pascalr/internal/value"
	"pascalr/internal/workload"
)

func relKey(rows [][]value.Value) string {
	var keys []string
	for _, tup := range rows {
		keys = append(keys, value.EncodeKey(tup))
	}
	sort.Strings(keys)
	return strings.Join(keys, "|")
}

// TestPlanReuseAcrossMutations proves a compiled plan stays correct as
// the database changes underneath it: plain inserts (statistics drift),
// emptying a relation (the Lemma 1 fold changes, forcing template
// recompilation), and refilling it (the fold changes back). After every
// mutation the reused plan must agree with a fresh baseline evaluation.
func TestPlanReuseAcrossMutations(t *testing.T) {
	ctx := context.Background()
	db := tinyUniversity(t)
	checked, info, err := calculus.Check(workload.SampleSelection(), db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := New(db, nil).Compile(checked, info, Options{Strategies: AllStrategies})
	if err != nil {
		t.Fatal(err)
	}

	verify := func(step string) {
		t.Helper()
		want, err := baseline.Eval(checked, info, db)
		if err != nil {
			t.Fatalf("%s: baseline: %v", step, err)
		}
		got, err := plan.Eval(ctx)
		if err != nil {
			t.Fatalf("%s: plan: %v", step, err)
		}
		if relKey(got) != relKey(want) {
			t.Fatalf("%s: reused plan disagrees with baseline: got %d rows, want %d",
				step, len(got), len(want))
		}
	}

	verify("initial")
	papers := db.MustRelation("papers")
	saved := papers.Tuples()

	if _, err := papers.Insert([]value.Value{value.Int(4), value.Int(1977), value.String_("t3")}); err != nil {
		t.Fatal(err)
	}
	verify("after insert")

	if err := papers.Assign(nil); err != nil {
		t.Fatal(err)
	}
	verify("after emptying papers")

	if err := papers.Assign(saved); err != nil {
		t.Fatal(err)
	}
	verify("after refilling papers")
}

// TestPlanReuseSkipsRecompilation checks the version gate: executions
// without intervening mutations must not re-run the empty-range fold,
// and content mutations that leave emptiness unchanged must not swap
// the template.
func TestPlanReuseSkipsRecompilation(t *testing.T) {
	ctx := context.Background()
	db := tinyUniversity(t)
	checked, info, err := calculus.Check(workload.SampleSelection(), db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := New(db, nil).Compile(checked, info, Options{Strategies: AllStrategies})
	if err != nil {
		t.Fatal(err)
	}
	tmpl := plan.tmpl
	if _, err := plan.Eval(ctx); err != nil {
		t.Fatal(err)
	}
	if plan.tmpl != tmpl {
		t.Fatal("template replaced without any mutation")
	}
	if _, err := db.MustRelation("papers").Insert([]value.Value{value.Int(4), value.Int(1979), value.String_("t3")}); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Eval(ctx); err != nil {
		t.Fatal(err)
	}
	if plan.tmpl != tmpl {
		t.Fatal("template recompiled although the empty-range fold was unchanged")
	}
}

// TestFoldRecompileRefreshesAutoStats checks that a fold-driven
// recompile refreshes self-derived statistics. A relation the fold
// eliminated while empty is absent from relMuts, so when it gains rows
// only the fold key notices the change — the recompiled template must
// read the relation's current statistics, not the compile-time snapshot
// (which the restamped relMuts would otherwise tag as fresh forever).
func TestFoldRecompileRefreshesAutoStats(t *testing.T) {
	ctx := context.Background()
	db := tinyUniversity(t)
	papers := db.MustRelation("papers")
	saved := papers.Tuples()
	if err := papers.Assign(nil); err != nil {
		t.Fatal(err)
	}
	checked, info, err := calculus.Check(workload.SampleSelection(), db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := New(db, nil).Compile(checked, info, Options{Strategies: AllStrategies, CostBased: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := papers.Assign(saved); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Eval(ctx); err != nil {
		t.Fatal(err)
	}
	plan.mu.Lock()
	card := plan.opts.Estimator.Card("papers")
	plan.mu.Unlock()
	if card != float64(len(saved)) {
		t.Fatalf("recompiled plan's estimator sees %v papers rows, want %d", card, len(saved))
	}
}

// countdownCtx is a context whose Err starts reporting cancellation
// after a fixed number of checks — a deterministic stand-in for a
// context cancelled mid-evaluation.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.remaining.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestEvalCancellation drives the sample query with contexts that
// cancel at every successive checkpoint — before entry, during
// collection, during combination, during construction — and requires
// ctx.Err() (not a wrapped or different error) in each case, with no
// goroutines left behind.
func TestEvalCancellation(t *testing.T) {
	db := tinyUniversity(t)
	checked, info, err := calculus.Check(workload.SampleSelection(), db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	eng := New(db, nil)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Eval(cancelled, checked, info, Options{Strategies: AllStrategies}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context: got %v, want context.Canceled", err)
	}

	before := runtime.NumGoroutine()
	sawSuccess := false
	for n := int64(0); n < 200; n++ {
		ctx := newCountdownCtx(n)
		res, err := eng.Eval(ctx, checked, info, Options{Strategies: AllStrategies})
		if err == nil {
			// The budget outlasted the evaluation: from here on every
			// larger budget succeeds too.
			sawSuccess = true
			if res == nil {
				t.Fatalf("countdown %d: nil result without error", n)
			}
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("countdown %d: got %v, want context.Canceled", n, err)
		}
	}
	if !sawSuccess {
		t.Fatal("evaluation never completed; countdown budget too small to cover all checkpoints")
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines leaked across cancelled evaluations: %d -> %d", before, after)
	}
}

// TestCursorCancelMidStream cancels between Next calls: the cursor must
// stop yielding and surface ctx.Err() from Err.
func TestCursorCancelMidStream(t *testing.T) {
	db := tinyUniversity(t)
	checked, info, err := calculus.Check(workload.SampleSelection(), db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := New(db, nil).Compile(checked, info, Options{Strategies: AllStrategies})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cur, err := plan.Rows(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if !cur.Next() {
		t.Fatalf("first Next failed: %v", cur.Err())
	}
	cancel()
	if cur.Next() {
		t.Fatal("Next succeeded after cancellation")
	}
	if !errors.Is(cur.Err(), context.Canceled) {
		t.Fatalf("cursor error: got %v, want context.Canceled", cur.Err())
	}
}

// TestCursorStreamsDistinctTuples checks the cursor's on-the-fly
// deduplication: the yielded stream must equal the materialized result
// tuple for tuple.
func TestCursorStreamsDistinctTuples(t *testing.T) {
	ctx := context.Background()
	db := tinyUniversity(t)
	// Projecting only the level of matching courses collapses many
	// combination rows onto few result tuples.
	sel := &calculus.Selection{
		Proj: []calculus.Field{{Var: "c", Col: "clevel"}},
		Free: []calculus.Decl{{Var: "c", Range: &calculus.RangeExpr{Rel: "courses"}}},
		Pred: &calculus.Cmp{
			L:  calculus.Field{Var: "c", Col: "cnr"},
			Op: value.OpGe,
			R:  calculus.Const{Val: value.Int(1)},
		},
	}
	checked, info, err := calculus.Check(sel, db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := New(db, nil).Compile(checked, info, Options{Strategies: AllStrategies})
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.Eval(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := plan.Rows(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var got []string
	for cur.Next() {
		got = append(got, value.EncodeKey(cur.Row()))
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, k := range got {
		if seen[k] {
			t.Fatalf("cursor yielded duplicate tuple %q", k)
		}
		seen[k] = true
	}
	if len(got) != len(want) {
		t.Fatalf("cursor yielded %d tuples, materialized result has %d", len(got), len(want))
	}
}

// TestExhaustedSnapshotRetriesFailStale: a writer that commits between
// a template's revalidation and the read lock on every attempt flips
// papers between one row and empty, so that the last template folds the
// ALL over papers away (papers was empty when it was revalidated) while
// the scans would see the row. The execution must not answer from that
// template: Rows fails with the retryable relation.ErrStale, and Eval,
// which retries on it, returns that error or the oracle's rows. A
// writer that commits as often but leaves papers filled does not fail
// the execution: no range the template folded away can have filled.
func TestExhaustedSnapshotRetriesFailStale(t *testing.T) {
	ctx := context.Background()
	db := tinyUniversity(t)
	papers := db.MustRelation("papers")
	row := []value.Value{value.Int(1), value.Int(1977), value.String_("t1")}
	if err := papers.Assign([][]value.Value{row}); err != nil {
		t.Fatal(err)
	}
	plan, checked, info := compileSrc(t, db, `[<e.ename> OF EACH e IN employees: ALL p IN papers (e.enr <> p.penr)]`)
	beforeSnapshot = func() {
		next := [][]value.Value{row}
		if papers.Len() > 0 {
			next = nil
		}
		if err := papers.Assign(next); err != nil {
			t.Error(err)
		}
	}
	t.Cleanup(func() { beforeSnapshot = func() {} })

	oracle := func() string {
		t.Helper()
		want, err := baseline.Eval(checked, info, db)
		if err != nil {
			t.Fatal(err)
		}
		return relKey(want)
	}
	cur, err := plan.Rows(ctx)
	if err == nil {
		got := drain(t, cur)
		t.Fatalf("Rows answered %d rows from a template older than the contents (the oracle's: %s)", len(got), oracle())
	}
	if !errors.Is(err, relation.ErrStale) {
		t.Fatalf("Rows: %v, want relation.ErrStale", err)
	}
	rows, err := plan.Eval(ctx)
	switch {
	case err == nil && relKey(rows) != oracle():
		t.Fatalf("Eval: %s, the oracle's rows: %s", relKey(rows), oracle())
	case err != nil && !errors.Is(err, relation.ErrStale):
		t.Fatalf("Eval: %v, want relation.ErrStale or the oracle's rows", err)
	}

	beforeSnapshot = func() {}
	if err := papers.Assign([][]value.Value{row}); err != nil {
		t.Fatal(err)
	}
	courses := db.MustRelation("courses")
	extra := []value.Value{value.Int(12), value.Enum("leveltype", workload.LevelJunior), value.String_("c12")}
	beforeSnapshot = func() {
		if _, err := courses.Insert(extra); err != nil {
			t.Error(err)
		}
		if _, err := courses.Delete(extra[:1]); err != nil {
			t.Error(err)
		}
	}
	cur, err = plan.Rows(ctx)
	if err != nil {
		t.Fatalf("Rows under commits that fill no folded range: %v", err)
	}
	got := drain(t, cur)
	sort.Strings(got)
	if want := oracle(); strings.Join(got, "|") != want {
		t.Fatalf("Rows: %v, the oracle's rows: %s", got, want)
	}
}
