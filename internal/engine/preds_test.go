package engine

import (
	"testing"

	"pascalr/internal/calculus"
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
// checker and the predicate compiler: every comparison calculus.Check
// accepts (schema.Type.Comparable) must compile, so a compile failure is
// always a planning error on a selection Check would have refused —
// never a reachable runtime surprise. It covers every ordered pair of
// columns of the university and of a mixed-kind schema, every column
// against every kind of constant in both orders, and constant pairs,
// under all six operators. Widening Comparable without teaching the
// compiler fails here.
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
