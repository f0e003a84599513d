package normalize

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"pascalr/internal/baseline"
	"pascalr/internal/calculus"
	"pascalr/internal/relation"
	"pascalr/internal/value"
	"pascalr/internal/workload"
)

// checkedSample returns the checked Example 2.1 selection and its
// university database.
func checkedSample(t *testing.T, scale int) (*calculus.Selection, *calculus.Info, *relation.DB) {
	t.Helper()
	db := workload.MustUniversity(workload.DefaultConfig(scale))
	sel, info, err := calculus.Check(workload.SampleSelection(), db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	return sel, info, db
}

// emptiness is the Lemma 1 runtime information Fold reads: whether a
// range selects no element of db, by the baseline's own formula
// evaluation over the relation's elements.
func emptiness(t *testing.T, db *relation.DB) func(*calculus.RangeExpr) bool {
	return func(r *calculus.RangeExpr) bool {
		rel := db.MustRelation(r.Rel)
		if !r.Extended() {
			return rel.Len() == 0
		}
		sch := rel.Schema()
		for _, tuple := range rel.Tuples() {
			ok, err := baseline.EvalFormula(r.Filter, baseline.Env{r.FilterVar: {Tuple: tuple, Schema: sch}}, db)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				return false
			}
		}
		return true
	}
}

// TestExample22 reproduces the paper's Example 2.2: standardizing the
// sample query yields the prefix ALL p, SOME c, SOME t over a DNF matrix
// of exactly three conjunctions.
func TestExample22(t *testing.T) {
	sel, _, _ := checkedSample(t, 10)
	sf, err := Standardize(sel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sf.Prefix) != 3 {
		t.Fatalf("prefix = %v", sf.Prefix)
	}
	wantPrefix := []string{"ALL p IN papers", "SOME c IN courses", "SOME t IN timetable"}
	for i, q := range sf.Prefix {
		if q.String() != wantPrefix[i] {
			t.Errorf("prefix[%d] = %s, want %s", i, q, wantPrefix[i])
		}
	}
	if sf.Const != nil {
		t.Fatalf("matrix is constant %v", *sf.Const)
	}
	if len(sf.Matrix) != 3 {
		t.Fatalf("matrix has %d conjunctions, want 3:\n%s", len(sf.Matrix), sf)
	}
	wantLens := []int{2, 2, 4}
	for i, conj := range sf.Matrix {
		if len(conj) != wantLens[i] {
			t.Errorf("conjunction %d has %d terms, want %d", i, len(conj), wantLens[i])
		}
	}
	s := sf.String()
	for _, want := range []string{
		"p.pyear <> 1977",
		"e.enr <> p.penr",
		"c.clevel <= leveltype#1",
		"e.enr = t.tenr",
		"c.cnr = t.tcnr",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("standard form missing %q:\n%s", want, s)
		}
	}
	// Every conjunction carries the professor restriction — the
	// redundancy strategy 3 later removes.
	for i, conj := range sf.Matrix {
		found := false
		for _, c := range conj {
			if strings.Contains(c.String(), "estatus") {
				found = true
			}
		}
		if !found {
			t.Errorf("conjunction %d lost the professor term", i)
		}
	}
}

// TestExample22EmptyPapersAdaptation reproduces the paper's adaptation
// requirement: with papers = [], the standard form must reduce to
// "employees with estatus = professor", whereas the unadapted form would
// return all employees.
func TestExample22EmptyPapersAdaptation(t *testing.T) {
	sel, _, db := checkedSample(t, 10)
	if err := db.MustRelation("papers").Assign(nil); err != nil {
		t.Fatal(err)
	}
	folded := Fold(sel.Pred, emptiness(t, db))
	adapted := &calculus.Selection{Proj: sel.Proj, Free: sel.Free, Pred: folded}
	sf, err := Standardize(adapted, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// ALL p collapses to TRUE, so the whole OR collapses, leaving the
	// monadic professor restriction with no quantifiers.
	if len(sf.Prefix) != 0 {
		t.Errorf("adapted prefix = %v, want empty", sf.Prefix)
	}
	if len(sf.Matrix) != 1 || len(sf.Matrix[0]) != 1 {
		t.Fatalf("adapted matrix = %v", sf.Matrix)
	}
	if got := sf.Matrix[0][0].String(); !strings.Contains(got, "estatus") {
		t.Errorf("adapted term = %s", got)
	}
}

func TestNNF(t *testing.T) {
	a := &calculus.Cmp{L: calculus.Field{Var: "x", Col: "a"}, Op: value.OpLt, R: calculus.Const{Val: value.Int(3)}}
	b := &calculus.Cmp{L: calculus.Field{Var: "x", Col: "b"}, Op: value.OpEq, R: calculus.Const{Val: value.Int(1)}}

	// NOT over a comparison flips the operator.
	got := NNF(&calculus.Not{F: a})
	if got.String() != "x.a >= 3" {
		t.Errorf("NNF(NOT a<3) = %s", got)
	}
	// De Morgan.
	got = NNF(&calculus.Not{F: calculus.NewAnd(a, b)})
	if got.String() != "x.a >= 3 OR x.b <> 1" {
		t.Errorf("NNF(NOT (a AND b)) = %s", got)
	}
	got = NNF(&calculus.Not{F: calculus.NewOr(a, b)})
	if got.String() != "x.a >= 3 AND x.b <> 1" {
		t.Errorf("NNF(NOT (a OR b)) = %s", got)
	}
	// Double negation.
	got = NNF(&calculus.Not{F: &calculus.Not{F: a}})
	if got.String() != "x.a < 3" {
		t.Errorf("NNF(NOT NOT a) = %s", got)
	}
	// Quantifier dualization.
	q := &calculus.Quant{All: true, Var: "y", Range: &calculus.RangeExpr{Rel: "r"}, Body: a}
	got = NNF(&calculus.Not{F: q})
	gq, ok := got.(*calculus.Quant)
	if !ok || gq.All || gq.Body.String() != "x.a >= 3" {
		t.Errorf("NNF(NOT ALL) = %s", got)
	}
	// NOT of literal.
	if NNF(&calculus.Not{F: &calculus.Lit{Val: true}}).String() != "FALSE" {
		t.Errorf("NNF(NOT TRUE) wrong")
	}
	// No Not nodes remain on a deeply negated formula.
	deep := &calculus.Not{F: calculus.NewOr(&calculus.Not{F: a}, calculus.NewAnd(b, &calculus.Not{F: q}))}
	res := NNF(deep)
	calculus.Walk(res, func(f calculus.Formula) bool {
		if _, isNot := f.(*calculus.Not); isNot {
			t.Errorf("NNF left a NOT: %s", res)
		}
		return true
	})
}

func TestSimplifyConsts(t *testing.T) {
	tr := &calculus.Cmp{L: calculus.Const{Val: value.Int(1)}, Op: value.OpLt, R: calculus.Const{Val: value.Int(2)}}
	fa := &calculus.Cmp{L: calculus.Const{Val: value.Int(2)}, Op: value.OpEq, R: calculus.Const{Val: value.Int(3)}}
	x := &calculus.Cmp{L: calculus.Field{Var: "x", Col: "a"}, Op: value.OpEq, R: calculus.Const{Val: value.Int(1)}}

	if got := SimplifyConsts(tr); got.String() != "TRUE" {
		t.Errorf("1<2 = %s", got)
	}
	if got := SimplifyConsts(calculus.NewAnd(x, fa)); got.String() != "FALSE" {
		t.Errorf("x AND false = %s", got)
	}
	if got := SimplifyConsts(calculus.NewOr(x, tr)); got.String() != "TRUE" {
		t.Errorf("x OR true = %s", got)
	}
	if got := SimplifyConsts(&calculus.Not{F: fa}); got.String() != "TRUE" {
		t.Errorf("NOT false = %s", got)
	}
	if got := SimplifyConsts(nil); got.String() != "TRUE" {
		t.Errorf("nil = %s", got)
	}
	// Quantifier body simplifies but the quantifier survives.
	q := &calculus.Quant{Var: "v", Range: &calculus.RangeExpr{Rel: "r"}, Body: calculus.NewAnd(tr, x)}
	got := SimplifyConsts(q).(*calculus.Quant)
	if got.Body.String() != "x.a = 1" {
		t.Errorf("quant body = %s", got.Body)
	}
}

func TestFoldEmptyRanges(t *testing.T) {
	x := &calculus.Cmp{L: calculus.Field{Var: "v", Col: "a"}, Op: value.OpEq, R: calculus.Const{Val: value.Int(1)}}
	isEmpty := func(r *calculus.RangeExpr) bool { return r.Rel == "empty" }

	someEmpty := &calculus.Quant{Var: "v", Range: &calculus.RangeExpr{Rel: "empty"}, Body: x}
	if got := Fold(someEmpty, isEmpty); got.String() != "FALSE" {
		t.Errorf("SOME over empty = %s", got)
	}
	allEmpty := &calculus.Quant{All: true, Var: "v", Range: &calculus.RangeExpr{Rel: "empty"}, Body: x}
	if got := Fold(allEmpty, isEmpty); got.String() != "TRUE" {
		t.Errorf("ALL over empty = %s", got)
	}
	// Nested: inner empty quantifier decides the outer one.
	outer := &calculus.Quant{All: true, Var: "w", Range: &calculus.RangeExpr{Rel: "full"},
		Body: &calculus.Quant{Var: "v", Range: &calculus.RangeExpr{Rel: "empty"}, Body: x}}
	if got := Fold(outer, isEmpty); got.String() != "FALSE" {
		t.Errorf("ALL w (SOME v-empty) = %s", got)
	}
	// Non-empty quantifier with undecided body survives.
	live := &calculus.Quant{Var: "v", Range: &calculus.RangeExpr{Rel: "full"}, Body: x}
	if _, ok := Fold(live, isEmpty).(*calculus.Quant); !ok {
		t.Errorf("live quantifier folded away")
	}
}

func TestPrenexOrder(t *testing.T) {
	sel, _, _ := checkedSample(t, 5)
	prefix, matrix, err := Prenex(NNF(SimplifyConsts(sel.Pred)))
	if err != nil {
		t.Fatal(err)
	}
	if len(prefix) != 3 || prefix[0].Var != "p" || prefix[1].Var != "c" || prefix[2].Var != "t" {
		t.Errorf("prefix = %v", prefix)
	}
	if calculus.QuantCount(matrix) != 0 {
		t.Errorf("matrix still has quantifiers: %s", matrix)
	}
}

func TestPrenexErrors(t *testing.T) {
	x := &calculus.Cmp{L: calculus.Field{Var: "v", Col: "a"}, Op: value.OpEq, R: calculus.Const{Val: value.Int(1)}}
	if _, _, err := Prenex(&calculus.Not{F: x}); err == nil {
		t.Errorf("Prenex accepted NOT")
	}
	dup := calculus.NewAnd(
		&calculus.Quant{Var: "v", Range: &calculus.RangeExpr{Rel: "r"}, Body: x},
		&calculus.Quant{Var: "v", Range: &calculus.RangeExpr{Rel: "r"}, Body: x},
	)
	if _, _, err := Prenex(dup); err == nil {
		t.Errorf("Prenex accepted duplicate variable names")
	}
}

func TestDNF(t *testing.T) {
	mk := func(v string, n int64) *calculus.Cmp {
		return &calculus.Cmp{L: calculus.Field{Var: v, Col: "a"}, Op: value.OpEq, R: calculus.Const{Val: value.Int(n)}}
	}
	a, b, c, d := mk("w", 1), mk("x", 2), mk("y", 3), mk("z", 4)

	// (a OR b) AND (c OR d) -> 4 conjunctions.
	conjs, cnst, err := DNF(calculus.NewAnd(calculus.NewOr(a, b), calculus.NewOr(c, d)), 100)
	if err != nil || cnst != nil {
		t.Fatalf("DNF error %v const %v", err, cnst)
	}
	if len(conjs) != 4 {
		t.Errorf("distribution produced %d conjunctions", len(conjs))
	}
	// Duplicate atom collapses.
	conjs, _, err = DNF(calculus.NewAnd(a, a), 100)
	if err != nil || len(conjs) != 1 || len(conjs[0]) != 1 {
		t.Errorf("duplicate atom not collapsed: %v", conjs)
	}
	// Contradiction drops the conjunction; whole formula becomes FALSE.
	notA := &calculus.Cmp{L: a.L, Op: a.Op.Negate(), R: a.R}
	conjs, cnst, err = DNF(calculus.NewAnd(a, notA), 100)
	if err != nil || cnst == nil || *cnst {
		t.Errorf("contradiction = %v const %v", conjs, cnst)
	}
	// TRUE matrix.
	_, cnst, err = DNF(&calculus.Lit{Val: true}, 100)
	if err != nil || cnst == nil || !*cnst {
		t.Errorf("TRUE matrix const = %v", cnst)
	}
	// Duplicate conjunctions collapse.
	conjs, _, err = DNF(calculus.NewOr(calculus.NewAnd(a, b), calculus.NewAnd(b, a)), 100)
	if err != nil || len(conjs) != 1 {
		t.Errorf("duplicate conjunctions kept: %v", conjs)
	}
	// Explosion guard.
	big := calculus.NewAnd(calculus.NewOr(a, b), calculus.NewOr(c, d))
	if _, _, err := DNF(big, 2); err == nil {
		t.Errorf("maxConj not enforced")
	}
}

func TestStandardFormRoundTrip(t *testing.T) {
	sel, info, db := checkedSample(t, 8)
	sf, err := Standardize(sel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := sf.Selection()
	// The rebuilt selection must evaluate identically (all ranges in the
	// default university are non-empty, so the standardization
	// assumption holds).
	want := resultKey(t, evalSel(t, db, sel, info))
	got := resultKey(t, evalSel(t, db, rebuilt, nil))
	if want != got {
		t.Errorf("standard form changes semantics:\noriginal: %s\nstandard: %s", want, got)
	}
}

func TestStandardFormHelpers(t *testing.T) {
	sel, _, _ := checkedSample(t, 5)
	sf, err := Standardize(sel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if vars := sf.Vars(); len(vars) != 4 || vars[0] != "e" {
		t.Errorf("Vars = %v", vars)
	}
	if r, ok := sf.RangeOf("p"); !ok || r.Rel != "papers" {
		t.Errorf("RangeOf(p) = %v,%v", r, ok)
	}
	if _, ok := sf.RangeOf("zz"); ok {
		t.Errorf("RangeOf(zz) resolved")
	}
	// p occurs in conjunctions 0 and 1 (Example 4.6's observation).
	if got := sf.ConjunctionsWith("p"); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("ConjunctionsWith(p) = %v", got)
	}
	if got := sf.ConjunctionsWith("c"); len(got) != 1 || got[0] != 2 {
		t.Errorf("ConjunctionsWith(c) = %v", got)
	}
	if sf.NumTerms() != 8 {
		t.Errorf("NumTerms = %d", sf.NumTerms())
	}
	cp := sf.Clone()
	cp.Matrix[0][0].Op = cp.Matrix[0][0].Op.Negate()
	if sf.String() == cp.String() {
		t.Errorf("Clone shares term storage")
	}
}

func evalSel(t *testing.T, db *relation.DB, sel *calculus.Selection, info *calculus.Info) [][]value.Value {
	t.Helper()
	if info == nil {
		var err error
		// Re-check to compute the result schema; labels are already
		// resolved so this is idempotent.
		sel, info, err = calculus.Check(sel, db.Catalog())
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := baseline.Eval(sel, info, db)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func resultKey(t *testing.T, rows [][]value.Value) string {
	t.Helper()
	var keys []string
	for _, tup := range rows {
		keys = append(keys, value.EncodeKey(tup))
	}
	sort.Strings(keys)
	return strings.Join(keys, "|")
}

// TestStandardizeIdempotent: standardizing an already-standard selection
// reproduces the same prefix and matrix.
func TestStandardizeIdempotent(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := workload.RandomDB(rng, 4)
		sel := workload.RandomSelection(rng)
		checked, _, err := calculus.Check(sel, db.Catalog())
		if err != nil {
			t.Fatal(err)
		}
		sf1, err := Standardize(checked, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sf2, err := Standardize(sf1.Selection(), Options{})
		if err != nil {
			t.Fatalf("seed %d: re-standardize: %v", seed, err)
		}
		if sf1.String() != sf2.String() {
			t.Fatalf("seed %d: standardization not idempotent:\n%s\n%s", seed, sf1, sf2)
		}
	}
}

// TestPipelineEquivalenceRandom is the differential property test of the
// whole section 2 pipeline: for random databases (with empty relations)
// and random selections, Fold + Standardize must preserve semantics
// exactly, per Lemma 1.
func TestPipelineEquivalenceRandom(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := workload.RandomDB(rng, 5)
		sel := workload.RandomSelection(rng)
		checked, info, err := calculus.Check(sel, db.Catalog())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, err := baseline.Eval(checked, info, db)
		if err != nil {
			t.Fatalf("seed %d: baseline: %v", seed, err)
		}

		// NNF alone is unconditionally equivalent.
		nnfSel := &calculus.Selection{Proj: checked.Proj, Free: checked.Free, Pred: NNF(checked.Pred)}
		got, err := baseline.Eval(nnfSel, info, db)
		if err != nil {
			t.Fatalf("seed %d: nnf eval: %v", seed, err)
		}
		if resultKey(t, want) != resultKey(t, got) {
			t.Fatalf("seed %d: NNF changed semantics\nquery: %s", seed, checked)
		}

		// Fold + full standardization.
		folded := Fold(checked.Pred, emptiness(t, db))
		foldedSel := &calculus.Selection{Proj: checked.Proj, Free: checked.Free, Pred: folded}
		sf, err := Standardize(foldedSel, Options{})
		if err != nil {
			t.Fatalf("seed %d: standardize: %v\nquery: %s", seed, err, checked)
		}
		got, err = baseline.Eval(sf.Selection(), info, db)
		if err != nil {
			t.Fatalf("seed %d: standard eval: %v", seed, err)
		}
		if resultKey(t, want) != resultKey(t, got) {
			t.Fatalf("seed %d: standardization changed semantics\nquery: %s\nstandard:\n%s",
				seed, checked, sf)
		}
	}
}
