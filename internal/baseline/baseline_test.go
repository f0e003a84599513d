package baseline

import (
	"sort"
	"testing"

	"pascalr/internal/calculus"
	"pascalr/internal/relation"
	"pascalr/internal/stats"
	"pascalr/internal/value"
	"pascalr/internal/workload"
)

// tinyUniversity builds a hand-checkable Figure 1 instance:
//
//	employees: ada(1,prof), bob(2,student), cyd(3,prof), dan(4,prof)
//	papers:    t1 by ada in 1977; t2 by cyd in 1980
//	courses:   10 sophomore, 11 senior
//	timetable: ada teaches 11 (senior); cyd teaches 10 (sophomore)
//
// Example 2.1 asks for professors who published no 1977 paper or teach a
// course at sophomore level or below: cyd (no 1977 paper, and also
// teaches sophomore), dan (no papers at all). ada published in 1977 and
// teaches only a senior course, so she is out.
func tinyUniversity(t *testing.T) *relation.DB {
	t.Helper()
	db := relation.NewDB()
	if err := workload.DefineSchema(db, workload.DefaultConfig(10)); err != nil {
		t.Fatal(err)
	}
	ins := func(rel string, tuples ...[]value.Value) {
		r := db.MustRelation(rel)
		for _, tup := range tuples {
			if _, err := r.Insert(tup); err != nil {
				t.Fatalf("insert %s: %v", rel, err)
			}
		}
	}
	ins("employees",
		[]value.Value{value.Int(1), value.String_("ada"), value.Enum("statustype", workload.StatusProfessor)},
		[]value.Value{value.Int(2), value.String_("bob"), value.Enum("statustype", workload.StatusStudent)},
		[]value.Value{value.Int(3), value.String_("cyd"), value.Enum("statustype", workload.StatusProfessor)},
		[]value.Value{value.Int(4), value.String_("dan"), value.Enum("statustype", workload.StatusProfessor)},
	)
	ins("papers",
		[]value.Value{value.Int(1), value.Int(1977), value.String_("t1")},
		[]value.Value{value.Int(3), value.Int(1980), value.String_("t2")},
	)
	ins("courses",
		[]value.Value{value.Int(10), value.Enum("leveltype", workload.LevelSophomore), value.String_("c10")},
		[]value.Value{value.Int(11), value.Enum("leveltype", workload.LevelSenior), value.String_("c11")},
	)
	ins("timetable",
		[]value.Value{value.Int(1), value.Int(11), value.Enum("daytype", 0), value.Int(9000900), value.String_("R1")},
		[]value.Value{value.Int(3), value.Int(10), value.Enum("daytype", 1), value.Int(9000900), value.String_("R2")},
	)
	return db
}

// names extracts the single string column of a result, sorted.
func names(t *testing.T, rows [][]value.Value) []string {
	t.Helper()
	var out []string
	for _, tup := range rows {
		out = append(out, tup[0].AsString())
	}
	sort.Strings(out)
	return out
}

func evalSample(t *testing.T, db *relation.DB, sel *calculus.Selection) [][]value.Value {
	t.Helper()
	checked, info, err := calculus.Check(sel, db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Eval(checked, info, db)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPaperExampleByHand(t *testing.T) {
	db := tinyUniversity(t)
	res := evalSample(t, db, workload.SampleSelection())
	got := names(t, res)
	want := []string{"cyd", "dan"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Example 2.1 = %v, want %v", got, want)
	}
}

func TestEmptyPapersMakesAllProfessorsQualify(t *testing.T) {
	db := tinyUniversity(t)
	if err := db.MustRelation("papers").Assign(nil); err != nil {
		t.Fatal(err)
	}
	res := evalSample(t, db, workload.SampleSelection())
	got := names(t, res)
	want := []string{"ada", "cyd", "dan"}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("with papers=[] got %v, want %v", got, want)
	}
}

func TestEmptyCoursesDisablesSomeBranch(t *testing.T) {
	db := tinyUniversity(t)
	if err := db.MustRelation("courses").Assign(nil); err != nil {
		t.Fatal(err)
	}
	// Only the ALL p branch can qualify now: cyd and dan.
	res := evalSample(t, db, workload.SampleSelection())
	got := names(t, res)
	if len(got) != 2 || got[0] != "cyd" || got[1] != "dan" {
		t.Errorf("with courses=[] got %v", got)
	}
}

func TestSubexpressionSelection(t *testing.T) {
	db := tinyUniversity(t)
	res := evalSample(t, db, workload.SubexprSelection())
	// Only course 10 is sophomore; only cyd teaches it: one pair.
	if len(res) != 1 {
		t.Errorf("Example 3.2 fragment returned %d rows", len(res))
	}
	tup := res[0]
	if tup[0].AsInt() != 10 || tup[1].AsInt() != 3 {
		t.Errorf("Example 3.2 fragment = %v", tup)
	}
}

func TestExtendedRangeSemantics(t *testing.T) {
	db := tinyUniversity(t)
	// Professors via an extended free range instead of a monadic term.
	sel := &calculus.Selection{
		Proj: []calculus.Field{{Var: "e", Col: "ename"}},
		Free: []calculus.Decl{{Var: "e", Range: &calculus.RangeExpr{
			Rel: "employees", FilterVar: "e",
			Filter: &calculus.Cmp{
				L:  calculus.Field{Var: "e", Col: "estatus"},
				Op: value.OpEq,
				R:  calculus.Label{Name: "professor"},
			},
		}}},
	}
	got := names(t, evalSample(t, db, sel))
	if len(got) != 3 || got[0] != "ada" || got[1] != "cyd" || got[2] != "dan" {
		t.Errorf("extended range professors = %v", got)
	}
}

func TestQuantifierEmptyRangeSemantics(t *testing.T) {
	db := tinyUniversity(t)
	if err := db.MustRelation("papers").Assign(nil); err != nil {
		t.Fatal(err)
	}
	env := Env{}
	someEmpty := &calculus.Quant{Var: "p", Range: &calculus.RangeExpr{Rel: "papers"}, Body: &calculus.Lit{Val: true}}
	ok, err := EvalFormula(someEmpty, env, db)
	if err != nil || ok {
		t.Errorf("SOME over empty = %v, %v; want false", ok, err)
	}
	allEmpty := &calculus.Quant{All: true, Var: "p", Range: &calculus.RangeExpr{Rel: "papers"}, Body: &calculus.Lit{Val: false}}
	ok, err = EvalFormula(allEmpty, env, db)
	if err != nil || !ok {
		t.Errorf("ALL over empty = %v, %v; want true", ok, err)
	}
}

func TestNotAndConnectives(t *testing.T) {
	db := tinyUniversity(t)
	env := Env{}
	tr := &calculus.Lit{Val: true}
	fa := &calculus.Lit{Val: false}
	cases := []struct {
		f    calculus.Formula
		want bool
	}{
		{&calculus.Not{F: tr}, false},
		{&calculus.Not{F: fa}, true},
		{calculus.NewAnd(tr, tr), true},
		{&calculus.And{Fs: []calculus.Formula{tr, fa}}, false},
		{&calculus.Or{Fs: []calculus.Formula{fa, tr}}, true},
		{&calculus.Or{Fs: []calculus.Formula{fa, fa}}, false},
		{nil, true}, // nil predicate means TRUE
	}
	for i, c := range cases {
		got, err := EvalFormula(c.f, env, db)
		if err != nil || got != c.want {
			t.Errorf("case %d: = %v, %v; want %v", i, got, err, c.want)
		}
	}
}

func TestScanCountsReflectNaiveCost(t *testing.T) {
	db := tinyUniversity(t)
	st := &stats.Counters{}
	db.SetStats(st)
	evalSample(t, db, workload.SampleSelection())
	// The naive evaluator scans employees once, and papers once per
	// employee (4). courses/timetable scans depend on short-circuiting;
	// they must be at least 1.
	if st.BaseScans["employees"] != 1 {
		t.Errorf("employees scans = %d", st.BaseScans["employees"])
	}
	if st.BaseScans["papers"] < 3 {
		t.Errorf("papers scans = %d, want one per professor at least", st.BaseScans["papers"])
	}
}

func TestEvalErrors(t *testing.T) {
	db := tinyUniversity(t)
	env := Env{}
	// Unknown relation in a quantifier range.
	q := &calculus.Quant{Var: "x", Range: &calculus.RangeExpr{Rel: "ghost"}, Body: &calculus.Lit{Val: true}}
	if _, err := EvalFormula(q, env, db); err == nil {
		t.Errorf("unknown relation accepted")
	}
	// Unbound variable.
	c := &calculus.Cmp{L: calculus.Field{Var: "z", Col: "enr"}, Op: value.OpEq, R: calculus.Const{Val: value.Int(1)}}
	if _, err := EvalFormula(c, env, db); err == nil {
		t.Errorf("unbound variable accepted")
	}
	// Unresolved label (selection not checked).
	lbl := &calculus.Cmp{L: calculus.Label{Name: "professor"}, Op: value.OpEq, R: calculus.Const{Val: value.Int(1)}}
	if _, err := EvalFormula(lbl, env, db); err == nil {
		t.Errorf("unresolved label accepted")
	}
}

func TestResultIsSet(t *testing.T) {
	db := tinyUniversity(t)
	// Project estatus of all employees: duplicates must collapse.
	sel := &calculus.Selection{
		Proj: []calculus.Field{{Var: "e", Col: "estatus"}},
		Free: []calculus.Decl{{Var: "e", Range: &calculus.RangeExpr{Rel: "employees"}}},
	}
	res := evalSample(t, db, sel)
	if len(res) != 2 { // professor and student
		t.Errorf("distinct statuses = %d, want 2", len(res))
	}
}
