package engine

import (
	"context"
	"strings"
	"testing"

	"pascalr/internal/baseline"
	"pascalr/internal/calculus"
	"pascalr/internal/relation"
	"pascalr/internal/schema"
	"pascalr/internal/stats"
	"pascalr/internal/value"
)

// costDB builds two joinable relations: "small" (smallRows) and "big"
// (bigRows), each with a unique key k and a join column v over 0..9.
func costDB(t *testing.T, smallRows, bigRows int) *relation.DB {
	t.Helper()
	db := relation.NewDB()
	keyt := schema.IntType("keyt", 0, 1<<20)
	vt := schema.IntType("vt", 0, 9)
	for _, spec := range []struct {
		name string
		rows int
	}{{"small", smallRows}, {"big", bigRows}} {
		rel := db.MustCreate(schema.MustRelSchema(spec.name, []schema.Column{
			{Name: "k", Type: keyt},
			{Name: "v", Type: vt},
		}, []string{"k"}))
		for i := 0; i < spec.rows; i++ {
			if _, err := rel.Insert([]value.Value{value.Int(int64(i)), value.Int(int64(i % 10))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// joinSelection declares s (over small, optionally with a selective
// monadic term) BEFORE b (over big), so the static planner always
// indexes small and probes with every big tuple.
func joinSelection(selective bool) *calculus.Selection {
	pred := calculus.Formula(&calculus.Cmp{
		L: calculus.Field{Var: "s", Col: "v"}, Op: value.OpEq,
		R: calculus.Field{Var: "b", Col: "v"},
	})
	if selective {
		pred = calculus.NewAnd(
			&calculus.Cmp{L: calculus.Field{Var: "s", Col: "v"}, Op: value.OpLe, R: calculus.Const{Val: value.Int(0)}},
			pred,
		)
	}
	return &calculus.Selection{
		Proj: []calculus.Field{{Var: "s", Col: "k"}, {Var: "b", Col: "k"}},
		Free: []calculus.Decl{
			{Var: "s", Range: &calculus.RangeExpr{Rel: "small"}},
			{Var: "b", Range: &calculus.RangeExpr{Rel: "big"}},
		},
		Pred: pred,
	}
}

// planOrder compiles the physical plan and returns the chosen scan
// order.
func planOrder(t *testing.T, db *relation.DB, sel *calculus.Selection, costBased bool) []string {
	t.Helper()
	checked, _, err := calculus.Check(sel, db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Strategies: S1 | S2, CostBased: costBased}
	if costBased {
		opts.Estimator = db.Analyze()
	}
	x := prepareTemplate(t, db, checked, opts)
	p, err := buildPlan(x, db, &stats.Counters{}, opts.Strategies, planEstimator(opts), &workspace{})
	if err != nil {
		t.Fatal(err)
	}
	return p.order
}

// TestCostOrderingSkewFlipsOrder is the tie-break test: on a skewed
// workload (selective predicate on the small relation) the cost-based
// planner scans big first so the restricted small side probes, while on
// a uniform workload (equal sizes, no restriction) it keeps the static
// declaration order.
func TestCostOrderingSkewFlipsOrder(t *testing.T) {
	skewed := costDB(t, 40, 400)

	static := planOrder(t, skewed, joinSelection(true), false)
	if got := strings.Join(static, ","); got != "s,b" {
		t.Fatalf("static order = %v, want s,b (declaration order)", static)
	}
	cost := planOrder(t, skewed, joinSelection(true), true)
	if got := strings.Join(cost, ","); got != "b,s" {
		t.Fatalf("cost-based order on skewed data = %v, want b,s (selective side probes)", cost)
	}

	uniform := costDB(t, 100, 100)
	costU := planOrder(t, uniform, joinSelection(false), true)
	if got := strings.Join(costU, ","); got != "s,b" {
		t.Fatalf("cost-based order on uniform data = %v, want s,b (tie falls back to static)", costU)
	}
}

// transientSelection joins big to small with a selective range filter
// on big (extracted into an extended range under S3). big is declared
// first and keeps the larger effective cardinality, so both planners
// scan it first and index its v component — the index implementation
// choice is what differs.
func transientSelection() *calculus.Selection {
	return &calculus.Selection{
		Proj: []calculus.Field{{Var: "s", Col: "k"}, {Var: "b", Col: "k"}},
		Free: []calculus.Decl{
			{Var: "b", Range: &calculus.RangeExpr{Rel: "big"}},
			{Var: "s", Range: &calculus.RangeExpr{Rel: "small"}},
		},
		Pred: calculus.NewAnd(
			&calculus.Cmp{L: calculus.Field{Var: "b", Col: "k"}, Op: value.OpLt, R: calculus.Const{Val: value.Int(100)}},
			&calculus.Cmp{L: calculus.Field{Var: "s", Col: "v"}, Op: value.OpEq, R: calculus.Field{Var: "b", Col: "v"}},
		),
	}
}

// TestCostBasedTransientOverFilteredPermanent pins the cost-based
// choice between index implementations: with a permanent index on
// big.v and big's range extended by a selective filter, the static plan
// keeps the paper's permanent-always-wins rule (probing the full index
// and filtering hits against the range list), while the cost-based plan
// builds a transient index over only the surviving tuples — during the
// scan the extended range forces anyway. Results must agree with the
// baseline either way.
func TestCostBasedTransientOverFilteredPermanent(t *testing.T) {
	db := costDB(t, 40, 400)
	if _, err := db.MustRelation("big").CreateIndex("v"); err != nil {
		t.Fatal(err)
	}
	checked, info, err := calculus.Check(transientSelection(), db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	build := func(costBased bool, strat Strategy) *plan {
		t.Helper()
		opts := Options{Strategies: strat, CostBased: costBased}
		if costBased {
			opts.Estimator = db.Estimator()
		}
		x := prepareTemplate(t, db, checked, opts)
		p, err := buildPlan(x, db, &stats.Counters{}, opts.Strategies, planEstimator(opts), &workspace{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	hasIx := func(p *plan, key string) bool { _, ok := p.ixs[key]; return ok }

	static := build(false, S1|S2|S3)
	if !hasIx(static, "permix|b|v") {
		t.Errorf("static plan dropped the permanent index: %v", sortedKeys(static.ixs))
	}
	cost := build(true, S1|S2|S3)
	if !hasIx(cost, "ix|b|v") || hasIx(cost, "permix|b|v") {
		t.Errorf("cost-based plan should build a transient index over the filtered range: %v", sortedKeys(cost.ixs))
	}
	// Without S1's scan fusion a transient build pays its own scan, so
	// the permanent index stays even under cost-based planning.
	costS0 := build(true, S2|S3)
	if !hasIx(costS0, "permix|b|v") {
		t.Errorf("cost-based plan without S1 should keep the permanent index: %v", sortedKeys(costS0.ixs))
	}

	// End-to-end: both planners agree with the baseline.
	want, err := baseline.Eval(checked, info, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, costBased := range []bool{false, true} {
		opts := Options{Strategies: S1 | S2 | S3, CostBased: costBased}
		if costBased {
			opts.Estimator = db.Estimator()
		}
		res, err := New(db, nil).Eval(context.Background(), checked, info, opts)
		if err != nil {
			t.Fatal(err)
		}
		if resultKey(res) != resultKey(want) {
			t.Fatalf("cost=%v: transient/permanent index plans disagree with baseline", costBased)
		}
	}
}

// TestAutoEstimatorRefreshesOnRebuild: a compiled plan that derived its
// own statistics must pick up a statistics rebuild (Analyze, drift
// re-bucketing) on the next execution even though rebuilds do not move
// the content version.
func TestAutoEstimatorRefreshesOnRebuild(t *testing.T) {
	db := costDB(t, 10, 20)
	checked, info, err := calculus.Check(joinSelection(false), db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := New(db, nil).Compile(checked, info, Options{Strategies: S1, CostBased: true})
	if err != nil {
		t.Fatal(err)
	}
	_, opts1, err := plan.instance()
	if err != nil {
		t.Fatal(err)
	}
	if _, optsQuiet, err := plan.instance(); err != nil || optsQuiet.Estimator != opts1.Estimator {
		t.Fatal("quiet database must reuse the cached estimator assembly")
	}
	// A mutation of a relation the plan never touches must not disturb
	// it — per-relation staleness.
	other := db.MustCreate(schema.MustRelSchema("unrelated", []schema.Column{
		{Name: "k", Type: schema.IntType("ukt", 0, 100)},
	}, []string{"k"}))
	if _, err := other.Insert([]value.Value{value.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if _, optsOther, err := plan.instance(); err != nil || optsOther.Estimator != opts1.Estimator {
		t.Fatal("unrelated-relation mutation invalidated the plan's estimator")
	}

	db.Analyze() // rebuild: bumps the plan's relations' counters, not the version
	_, opts2, err := plan.instance()
	if err != nil {
		t.Fatal(err)
	}
	if opts2.Estimator == opts1.Estimator {
		t.Fatal("statistics rebuild did not reach the compiled plan's estimator")
	}
}

// TestCostOrderingReducesWork verifies the cost argument itself: on the
// skewed join the cost-based plan issues fewer index probes and
// materializes fewer reference tuples than the static plan, at an
// identical result.
func TestCostOrderingReducesWork(t *testing.T) {
	db := costDB(t, 40, 400)
	sel := joinSelection(true)
	checked, info, err := calculus.Check(sel, db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	want, err := baseline.Eval(checked, info, db)
	if err != nil {
		t.Fatal(err)
	}

	run := func(costBased bool) (*stats.Counters, string) {
		st := &stats.Counters{}
		res, err := New(db, st).Eval(context.Background(), checked, info, Options{Strategies: S1 | S2, CostBased: costBased})
		if err != nil {
			t.Fatal(err)
		}
		return st, resultKey(res)
	}
	stStatic, keyStatic := run(false)
	stCost, keyCost := run(true)
	if wantKey := resultKey(want); keyStatic != wantKey || keyCost != wantKey {
		t.Fatal("plans disagree with the baseline result")
	}
	if stCost.IndexProbes >= stStatic.IndexProbes {
		t.Errorf("cost-based probes = %d, want < static %d", stCost.IndexProbes, stStatic.IndexProbes)
	}
	if stCost.RefTuples > stStatic.RefTuples {
		t.Errorf("cost-based ref tuples = %d, want <= static %d", stCost.RefTuples, stStatic.RefTuples)
	}
	if stCost.CostBasedPlans == 0 {
		t.Error("cost-based evaluation did not record a cost-based plan")
	}
	if len(stCost.PlanOrder) == 0 {
		t.Error("plan order not recorded")
	}
}
