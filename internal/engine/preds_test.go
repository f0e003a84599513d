package engine

import (
	"strings"
	"testing"

	"pascalr/internal/baseline"
	"pascalr/internal/calculus"
	"pascalr/internal/parser"
	"pascalr/internal/relation"
	"pascalr/internal/schema"
	"pascalr/internal/value"
	"pascalr/internal/workload"
)

// mixedCatalog declares one relation carrying every column kind, with
// two enumeration types and two reference targets so same-kind
// mismatches occur too.
func mixedCatalog(t *testing.T) *schema.Catalog {
	t.Helper()
	cat := schema.NewCatalog()
	color, err := schema.EnumType("colortype", "red", "green")
	if err != nil {
		t.Fatal(err)
	}
	size, err := schema.EnumType("sizetype", "small", "large")
	if err != nil {
		t.Fatal(err)
	}
	for _, typ := range []*schema.Type{color, size} {
		if err := cat.DefineType(typ); err != nil {
			t.Fatal(err)
		}
	}
	for _, rs := range []*schema.RelSchema{
		schema.MustRelSchema("parts", []schema.Column{{Name: "pnr", Type: schema.IntType("", 1, 99)}}, []string{"pnr"}),
		schema.MustRelSchema("mixed", []schema.Column{
			{Name: "id", Type: schema.IntType("", 1, 99)},
			{Name: "qty", Type: schema.IntType("", 0, 9)},
			{Name: "flag", Type: schema.BoolType()},
			{Name: "color", Type: color},
			{Name: "size", Type: size},
			{Name: "self", Type: schema.RefType("mixed")},
			{Name: "part", Type: schema.RefType("parts")},
			{Name: "name", Type: schema.StringType("", 8)},
			{Name: "note", Type: schema.StringType("", 40)},
		}, []string{"id"}),
	} {
		if err := cat.DefineRelation(rs); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// TestComparableImpliesCompilable is the contract between the type
// checker and the predicate compiler, both ways: every comparison
// calculus.Check accepts (schema.Type.Comparable) must compile, so a
// compile failure is always a planning error on a selection Check would
// have refused, and every comparison Check rejects must fail to
// compile, so no kernel meets operands of the wrong kind at run time.
// It covers every ordered pair of columns of the university and of a
// mixed-kind schema, every column against every kind of constant in
// both orders, and constant pairs, under all six operators. Widening or
// narrowing Comparable without teaching the compiler fails here.
func TestComparableImpliesCompilable(t *testing.T) {
	udb := relation.NewDB()
	if err := workload.DefineSchema(udb, workload.DefaultConfig(10)); err != nil {
		t.Fatal(err)
	}
	consts := []value.Value{
		value.Int(1), value.Bool(true), value.String_("x"),
		value.Enum("statustype", 3), value.Enum("leveltype", 1), value.Enum("daytype", 0),
		value.Enum("colortype", 1), value.Enum("sizetype", 0), value.Enum("othertype", 0),
		value.Ref(1, 0, 0),
	}
	ops := []value.CmpOp{value.OpEq, value.OpNe, value.OpLt, value.OpLe, value.OpGt, value.OpGe}
	accepted, rejected := 0, 0
	for _, cat := range []*schema.Catalog{udb.Catalog(), mixedCatalog(t)} {
		for _, rel := range cat.Relations() {
			sch, _ := cat.Relation(rel)
			var operands []calculus.Operand
			for _, col := range sch.Cols {
				operands = append(operands, calculus.Field{Var: "v", Col: col.Name})
			}
			for _, c := range consts {
				operands = append(operands, calculus.Const{Val: c})
			}
			for _, l := range operands {
				for _, r := range operands {
					for _, op := range ops {
						cmp := &calculus.Cmp{L: l, Op: op, R: r}
						_, _, checkErr := calculus.Check(&calculus.Selection{
							Proj: []calculus.Field{{Var: "v", Col: sch.Cols[0].Name}},
							Free: []calculus.Decl{{Var: "v", Range: &calculus.RangeExpr{Rel: rel}}},
							Pred: cmp,
						}, cat)
						_, compileErr := compileMonadic(cmp, "v", sch)
						if checkErr != nil {
							rejected++
							if compileErr == nil {
								t.Errorf("%s over %s: Check rejects (%v), the predicate compiler accepts", cmp, rel, checkErr)
							}
							continue
						}
						accepted++
						if compileErr != nil {
							t.Errorf("%s over %s: Check accepts, the predicate compiler rejects: %v", cmp, rel, compileErr)
						}
					}
				}
			}
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("table is one-sided: %d accepted, %d rejected", accepted, rejected)
	}
}

// enumDB holds two relations whose d columns share one enumeration
// type, so strategy 4 can derive an atom comparing enum columns (no two
// relations of the university schema share one): r has 24 elements
// with d = k mod 7, s has 6 with d in {1, 3, 5} and k = 4i. The string
// column n is k mod 4 spelled out.
func enumDB(t *testing.T) *relation.DB {
	t.Helper()
	db := relation.NewDB()
	wd, err := schema.EnumType("weekday", "mon", "tue", "wed", "thu", "fri", "sat", "sun")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Catalog().DefineType(wd); err != nil {
		t.Fatal(err)
	}
	kt := schema.IntType("kt", 0, 99)
	for _, rel := range []struct {
		name string
		n    int
		d    func(i int) int
		k    func(i int) int
	}{
		{"r", 24, func(i int) int { return i % 7 }, func(i int) int { return i }},
		{"s", 6, func(i int) int { return 1 + 2*(i%3) }, func(i int) int { return 4 * i }},
	} {
		r := db.MustCreate(schema.MustRelSchema(rel.name, []schema.Column{
			{Name: "k", Type: kt},
			{Name: "d", Type: wd},
			{Name: "n", Type: schema.StringType("", 8)},
		}, []string{"k"}))
		for i := 0; i < rel.n; i++ {
			k := rel.k(i)
			n := []string{"zero", "one", "two", "three"}[k%4]
			if _, err := r.Insert([]value.Value{value.Int(int64(k)), value.Enum("weekday", rel.d(i)), value.String_(n)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// TestDerivedEnumAtoms pins every form a derived strategy-4 atom takes
// over an enumeration column — the min/max bound, membership,
// non-membership, the constant decision and the multi-term tuple list
// (with a string term too) — to the baseline's result and to the
// comparisons the tuple-at-a-time evaluation counted.
func TestDerivedEnumAtoms(t *testing.T) {
	db := enumDB(t)
	for _, tc := range []struct {
		src  string
		rows int
		cmp  int64 // under AllStrategies and under S4 alone
	}{
		{`[<x.k> OF EACH x IN r: ALL y IN s (x.d >= y.d)]`, 6, 24},
		{`[<x.k> OF EACH x IN r: SOME y IN s (x.d = y.d)]`, 10, 24},
		{`[<x.k> OF EACH x IN r: ALL y IN s (x.d <> y.d)]`, 14, 24},
		{`[<x.k> OF EACH x IN r: ALL y IN s (x.d = y.d)]`, 0, 24},
		{`[<x.k> OF EACH x IN r: SOME y IN s ((x.d = y.d) AND (x.k < y.k))]`, 7, 150},
		{`[<x.k> OF EACH x IN r: SOME y IN s ((x.n = y.n) AND (x.d > y.d))]`, 4, 74},
	} {
		sel, err := parser.ParseSelection(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		checked, info, err := calculus.Check(sel, db.Catalog())
		if err != nil {
			t.Fatal(err)
		}
		want, err := baseline.Eval(checked, info, db)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []Strategy{AllStrategies, S4} {
			explain, err := New(db, nil).Explain(checked, Options{Strategies: strat})
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(explain, "value-list") {
				t.Fatalf("%s under %s: no strategy-4 spec planned\n%s", tc.src, strat, explain)
			}
			got, st := evalWith(t, db, checked, strat)
			if resultKey(got) != resultKey(want) {
				t.Errorf("%s under %s: %d rows, baseline %d", tc.src, strat, len(got), len(want))
			}
			if len(got) != tc.rows || st.Comparisons != tc.cmp {
				t.Errorf("%s under %s: %d rows, %d comparisons; want %d rows, %d comparisons",
					tc.src, strat, len(got), st.Comparisons, tc.rows, tc.cmp)
			}
		}
	}
}
