package pascalr

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"pascalr/internal/enginetest"
	"pascalr/internal/workload"
)

// TestResultOrder: a materialized result is the cursor's rows in the
// cursor's order. Query, Stmt.Query, QueryRows and Stmt.Rows yield the
// same rows in the same order for every query of the differential
// table under both planners, and the baseline yields the same set.
func TestResultOrder(t *testing.T) {
	script, err := workload.UniversityScript(20)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(script)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	drain := func(rows *Rows, err error) [][]any {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		var out [][]any
		for rows.Next() {
			out = append(out, rows.Values())
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, planner := range []struct {
		name string
		opts []Option
	}{{"static", nil}, {"cost", []Option{WithCostBased()}}} {
		for _, q := range enginetest.UniversityQueries {
			label := planner.name + " " + q.Name
			res, err := db.Query(q.Src, planner.opts...)
			if err != nil {
				t.Fatalf("%s: Query: %v", label, err)
			}
			want := res.Rows()
			stmt, err := db.Prepare(q.Src, planner.opts...)
			if err != nil {
				t.Fatalf("%s: Prepare: %v", label, err)
			}
			sres, err := stmt.Query(ctx)
			if err != nil {
				t.Fatalf("%s: Stmt.Query: %v", label, err)
			}
			for _, leg := range []struct {
				name string
				rows [][]any
			}{
				{"Stmt.Query", sres.Rows()},
				{"QueryRows", drain(db.QueryRows(ctx, q.Src, planner.opts...))},
				{"Stmt.Rows", drain(stmt.Rows(ctx))},
			} {
				if len(leg.rows) != len(want) || (len(want) > 0 && !reflect.DeepEqual(leg.rows, want)) {
					t.Fatalf("%s: %s yields %d rows in another order than Query's %d:\n%v\n%v",
						label, leg.name, len(leg.rows), len(want), leg.rows, want)
				}
			}
			base, err := db.Query(q.Src, WithBaseline())
			if err != nil {
				t.Fatalf("%s: baseline: %v", label, err)
			}
			if got, w := sortedRows(base.Rows()), sortedRows(want); !reflect.DeepEqual(got, w) {
				t.Fatalf("%s: baseline set differs:\n%v\n%v", label, got, w)
			}
		}
	}
}

// TestExecStoresSet: := and :+ from a selection whose projection
// repeats store each distinct row once.
func TestExecStoresSet(t *testing.T) {
	script, err := workload.UniversityScript(20)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(script)
	if err != nil {
		t.Fatal(err)
	}
	const all = `[<e.estatus> OF EACH e IN employees: e.enr >= 1]`
	distinct := db.MustQuery(all).Len()
	if n, _ := db.RelationLen("employees"); n <= distinct {
		t.Fatalf("%d employees over %d statuses: the projection repeats nothing", n, distinct)
	}
	db.MustExec(`statuses := ` + all + `;`)
	if n, err := db.RelationLen("statuses"); err != nil || n != distinct {
		t.Fatalf(":= stored %d rows (%v), want %d", n, err, distinct)
	}
	db.MustExec(`statuses := [<e.estatus> OF EACH e IN employees: e.estatus = professor];`)
	db.MustExec(`statuses :+ ` + all + `;`)
	if n, err := db.RelationLen("statuses"); err != nil || n != distinct {
		t.Fatalf(":+ left %d rows (%v), want %d", n, err, distinct)
	}
	dump, err := db.Dump("statuses")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sortedRows(dump.Rows()), sortedRows(db.MustQuery(all).Rows()); !reflect.DeepEqual(got, want) {
		t.Fatalf("stored %v, want %v", got, want)
	}
}

func sortedRows(rows [][]any) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%#v", r)
	}
	sort.Strings(out)
	return out
}
