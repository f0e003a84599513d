package normalize_test

import (
	"strings"
	"testing"

	"pascalr/internal/calculus"
	"pascalr/internal/enginetest"
	"pascalr/internal/normalize"
	"pascalr/internal/parser"
	"pascalr/internal/workload"
)

// TestSimplifyMatchesRendering: keying literals on their comparable
// calculus.Cmp values standardizes every differential query, and
// queries with duplicate terms, duplicate conjunctions and
// contradictions, to exactly the text that keying them on their
// renderings produced.
func TestSimplifyMatchesRendering(t *testing.T) {
	db := workload.MustUniversity(workload.DefaultConfig(5))
	queries := append([]enginetest.QueryTest(nil), enginetest.UniversityQueries...)
	queries = append(queries,
		enginetest.QueryTest{Name: "duplicate-terms", Src: `[<e.ename> OF EACH e IN employees:
			(e.enr = 3) AND (e.estatus = professor) AND (e.enr = 3)]`},
		enginetest.QueryTest{Name: "duplicate-conjunctions", Src: `[<e.ename> OF EACH e IN employees:
			((e.enr = 3) AND (e.estatus = professor)) OR ((e.estatus = professor) AND (e.enr = 3))
			OR ((e.enr = 4) AND (e.enr = 4))]`},
		enginetest.QueryTest{Name: "contradictory-conjunction", Src: `[<e.ename> OF EACH e IN employees:
			((e.enr = 3) AND (e.enr <> 3)) OR (e.estatus = professor)]`},
		enginetest.QueryTest{Name: "negated-term", Src: `[<e.ename> OF EACH e IN employees:
			(e.estatus = professor) AND (e.enr < 3) AND NOT (e.enr < 3)]`},
	)
	for _, q := range queries {
		sel, err := parser.ParseSelection(q.Src)
		if err != nil {
			t.Fatalf("%s: parse: %v", q.Name, err)
		}
		checked, _, err := calculus.Check(sel, db.Catalog())
		if err != nil {
			t.Fatalf("%s: check: %v", q.Name, err)
		}
		got, err := normalize.Standardize(checked, normalize.Options{})
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		want, err := normalize.StandardizeByRendering(checked, normalize.Options{})
		if err != nil {
			t.Fatalf("%s: reference: %v", q.Name, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: standard form\n%s\nwant\n%s", q.Name, got, want)
		}
		switch q.Name {
		case "duplicate-terms":
			if len(got.Matrix) != 1 || len(got.Matrix[0]) != 2 {
				t.Errorf("%s: duplicate term kept:\n%s", q.Name, got)
			}
		case "duplicate-conjunctions":
			if len(got.Matrix) != 2 {
				t.Errorf("%s: duplicate conjunction kept:\n%s", q.Name, got)
			}
		case "contradictory-conjunction":
			if len(got.Matrix) != 1 {
				t.Errorf("%s: contradictory conjunction kept:\n%s", q.Name, got)
			}
		case "negated-term":
			if got.Const == nil || *got.Const || !strings.Contains(got.String(), "FALSE") {
				t.Errorf("%s: not reduced to FALSE:\n%s", q.Name, got)
			}
		}
	}
}
