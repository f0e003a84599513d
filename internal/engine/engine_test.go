package engine

import (
	"context"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"pascalr/internal/baseline"
	"pascalr/internal/calculus"
	"pascalr/internal/optimizer"
	"pascalr/internal/relation"
	"pascalr/internal/stats"
	"pascalr/internal/value"
	"pascalr/internal/workload"
)

// ladder lists the strategy subsets the experiments compare.
var ladder = []Strategy{0, S1, S1 | S2, S1 | S2 | S3, AllStrategies}

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

func evalWith(t *testing.T, db *relation.DB, sel *calculus.Selection, strat Strategy) ([][]value.Value, *stats.Counters) {
	t.Helper()
	checked, info, err := calculus.Check(sel, db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	st := &stats.Counters{}
	eng := New(db, st)
	res, err := eng.Eval(context.Background(), checked, info, Options{Strategies: strat})
	if err != nil {
		t.Fatalf("strategies %s: %v", strat, err)
	}
	return res, st
}

func names(t *testing.T, rows [][]value.Value) []string {
	t.Helper()
	var out []string
	for _, tup := range rows {
		out = append(out, tup[0].AsString())
	}
	sort.Strings(out)
	return out
}

func TestPaperExampleAllStrategyLevels(t *testing.T) {
	for _, strat := range ladder {
		db := tinyUniversity(t)
		res, _ := evalWith(t, db, workload.SampleSelection(), strat)
		got := names(t, res)
		if len(got) != 2 || got[0] != "cyd" || got[1] != "dan" {
			t.Errorf("%s: Example 2.1 = %v, want [cyd dan]", strat, got)
		}
	}
}

func TestEmptyPapersAdaptation(t *testing.T) {
	// With papers = [], ALL p folds to TRUE: all professors qualify —
	// the adaptation the paper demands in Example 2.2.
	for _, strat := range ladder {
		db := tinyUniversity(t)
		if err := db.MustRelation("papers").Assign(nil); err != nil {
			t.Fatal(err)
		}
		res, _ := evalWith(t, db, workload.SampleSelection(), strat)
		got := names(t, res)
		if len(got) != 3 || got[0] != "ada" || got[1] != "cyd" || got[2] != "dan" {
			t.Errorf("%s: papers=[] gives %v, want all three professors", strat, got)
		}
	}
}

func TestEmptyCoursesAdaptation(t *testing.T) {
	// With courses = [], SOME c folds to FALSE: only the ALL p branch
	// qualifies (cyd and dan).
	for _, strat := range ladder {
		db := tinyUniversity(t)
		if err := db.MustRelation("courses").Assign(nil); err != nil {
			t.Fatal(err)
		}
		res, _ := evalWith(t, db, workload.SampleSelection(), strat)
		got := names(t, res)
		if len(got) != 2 || got[0] != "cyd" || got[1] != "dan" {
			t.Errorf("%s: courses=[] gives %v, want [cyd dan]", strat, got)
		}
	}
}

func TestEmptyEmployeesGivesEmptyResult(t *testing.T) {
	for _, strat := range ladder {
		db := tinyUniversity(t)
		if err := db.MustRelation("employees").Assign(nil); err != nil {
			t.Fatal(err)
		}
		res, _ := evalWith(t, db, workload.SampleSelection(), strat)
		if len(res) != 0 {
			t.Errorf("%s: empty free range returned %d rows", strat, len(res))
		}
	}
}

// TestStrategy1ScanCounts reproduces the paper's section 4.1 claim: under
// strategy 1 each database relation is read no more than once, while the
// standard algorithm reads a relation once per structure built from it.
func TestStrategy1ScanCounts(t *testing.T) {
	db := tinyUniversity(t)
	_, st0 := evalWith(t, db, workload.SampleSelection(), 0)
	_, st1 := evalWith(t, tinyUniversity(t), workload.SampleSelection(), S1)

	for _, rel := range []string{"employees", "papers", "courses", "timetable"} {
		if st1.BaseScans[rel] > 1 {
			t.Errorf("S1 scans %s %d times", rel, st1.BaseScans[rel])
		}
	}
	if st0.TotalScans() <= st1.TotalScans() {
		t.Errorf("S0 total scans %d not greater than S1 %d", st0.TotalScans(), st1.TotalScans())
	}
	// The sample query touches employees with three structures (sl_prof
	// via three conjunctions shares, ij_e_t, ij_e_p): S0 must scan it
	// more than once.
	if st0.BaseScans["employees"] < 2 {
		t.Errorf("S0 scans employees only %d times", st0.BaseScans["employees"])
	}
}

// prepareTemplate returns the template a plan of sel compiles under
// opts: empty ranges folded, standardized, strategies 3 and 4 applied.
func prepareTemplate(t *testing.T, db *relation.DB, sel *calculus.Selection, opts Options) *optimizer.XForm {
	t.Helper()
	db.RLock()
	x, _, err := New(db, nil).newPlan(sel, nil, opts).instance()
	db.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestStrategy3RemovesConjunction reproduces Example 4.5: extraction of
// the universal variable's monadic term removes one whole conjunction.
func TestStrategy3RemovesConjunction(t *testing.T) {
	db := tinyUniversity(t)
	checked, _, err := calculus.Check(workload.SampleSelection(), db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	x3 := prepareTemplate(t, db, checked, Options{Strategies: S3})
	if len(x3.Matrix) != 2 {
		t.Errorf("S3 matrix has %d conjunctions, want 2 (Example 4.5):\n%s", len(x3.Matrix), x3)
	}
	// The employees range must now be extended with the professor test,
	// the papers range with pyear = 1977, and the courses range with the
	// level test.
	s := x3.String()
	for _, want := range []string{
		"EACH e IN [EACH e IN employees: e.estatus = statustype#3]",
		"ALL p IN [EACH p IN papers: p.pyear = 1977]",
		"SOME c IN [EACH c IN courses: c.clevel <= leveltype#1]",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("S3 form missing %q:\n%s", want, s)
		}
	}
}

// TestStrategy4Cascade reproduces Example 4.7: with extended ranges in
// place, strategy 4 eliminates all three quantifiers into a cascade of
// value lists (cset, tset, pset).
func TestStrategy4Cascade(t *testing.T) {
	db := tinyUniversity(t)
	checked, _, err := calculus.Check(workload.SampleSelection(), db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	x := prepareTemplate(t, db, checked, Options{Strategies: S3 | S4})
	if len(x.Prefix) != 0 {
		t.Errorf("S3+S4 leaves prefix %v, want full elimination (Example 4.7):\n%s", x.Prefix, x)
	}
	if len(x.Specs) < 3 {
		t.Errorf("expected at least 3 value-list specs (cset, tset, pset), got %d", len(x.Specs))
	}
	// Without S3 the universal variable p occurs in two conjunctions, so
	// it cannot be eliminated (Example 4.6's observation).
	x4only := prepareTemplate(t, db, checked, Options{Strategies: S4})
	for _, q := range x4only.Prefix {
		if q.Var == "p" {
			return // p survived, as the paper says it must
		}
	}
	t.Errorf("S4 alone eliminated ALL p although it occurs in two conjunctions:\n%s", x4only)
}

func TestExplain(t *testing.T) {
	db := tinyUniversity(t)
	checked, _, err := calculus.Check(workload.SampleSelection(), db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	eng := New(db, nil)
	for _, strat := range ladder {
		out, err := eng.Explain(checked, Options{Strategies: strat})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if !strings.Contains(out, "collection phase") {
			t.Errorf("%s: explain missing sections:\n%s", strat, out)
		}
	}
	// All-strategies explain should show the one-scan-per-relation shape.
	out, _ := eng.Explain(checked, Options{Strategies: AllStrategies})
	if !strings.Contains(out, "strategies: S1+S2+S3+S4") {
		t.Errorf("explain header wrong:\n%s", out)
	}
}

func TestProfessorsOnlyQuery(t *testing.T) {
	// A purely monadic query exercises the no-quantifier path.
	for _, strat := range ladder {
		db := tinyUniversity(t)
		res, _ := evalWith(t, db, workload.ProfessorsSelection(), strat)
		got := names(t, res)
		if len(got) != 3 {
			t.Errorf("%s: professors = %v", strat, got)
		}
	}
}

func TestSubexprQuery(t *testing.T) {
	// The Example 3.2 fragment: two free variables, one dyadic term.
	for _, strat := range ladder {
		db := tinyUniversity(t)
		res, _ := evalWith(t, db, workload.SubexprSelection(), strat)
		if len(res) != 1 {
			t.Errorf("%s: subexpression rows = %d, want 1", strat, len(res))
		}
	}
}

func TestMaxRefTuplesGuard(t *testing.T) {
	db := workload.MustUniversity(workload.DefaultConfig(30))
	checked, info, err := calculus.Check(workload.SampleSelection(), db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	eng := New(db, nil)
	_, err = eng.Eval(context.Background(), checked, info, Options{Strategies: 0, MaxRefTuples: 10})
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Errorf("budget guard did not trigger: %v", err)
	}
}

// resultKey renders a result relation as a sorted string for
// order-independent comparison.
func resultKey(rows [][]value.Value) string {
	var keys []string
	for _, tup := range rows {
		keys = append(keys, value.EncodeKey(tup))
	}
	sort.Strings(keys)
	return strings.Join(keys, "|")
}

// TestDifferentialAgainstBaseline is the central correctness property:
// on random databases (including empty relations) and random selections,
// the engine under EVERY strategy subset must agree with the
// tuple-substitution baseline.
func TestDifferentialAgainstBaseline(t *testing.T) {
	subsets := []Strategy{0, S1, S2, S3, S4, S1 | S2, S1 | S3, S1 | S4, S2 | S3, S3 | S4,
		S1 | S2 | S3, S1 | S2 | S4, S1 | S3 | S4, S2 | S3 | S4, AllStrategies}
	seeds := int64(250)
	if testing.Short() {
		seeds = 60
	}
	for seed := int64(0); seed < seeds; seed++ {
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
		wantKey := resultKey(want)
		for _, strat := range subsets {
			eng := New(db, nil)
			got, err := eng.Eval(context.Background(), checked, info, Options{Strategies: strat})
			if err != nil {
				t.Fatalf("seed %d %s: engine: %v\nquery: %s", seed, strat, err, checked)
			}
			if gotKey := resultKey(got); gotKey != wantKey {
				t.Fatalf("seed %d %s: result mismatch\nquery: %s\nwant %d rows, got %d rows",
					seed, strat, checked, len(want), len(got))
			}
		}
	}
}

// TestDifferentialOnUniversity runs the paper's own query across random
// university instances and strategy subsets.
func TestDifferentialOnUniversity(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		cfg := workload.DefaultConfig(12)
		cfg.Seed = seed
		db := workload.MustUniversity(cfg)
		checked, info, err := calculus.Check(workload.SampleSelection(), db.Catalog())
		if err != nil {
			t.Fatal(err)
		}
		want, err := baseline.Eval(checked, info, db)
		if err != nil {
			t.Fatal(err)
		}
		wantKey := resultKey(want)
		for _, strat := range ladder {
			got, _ := evalWith(t, db, workload.SampleSelection(), strat)
			if resultKey(got) != wantKey {
				t.Errorf("seed %d %s: university query mismatch (want %d rows, got %d)",
					seed, strat, len(want), len(got))
			}
		}
	}
}
