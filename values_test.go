package pascalr

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// valuesDB holds 600 distinct rows of a small integer, an enumeration
// and a boolean: more than two construction chunks, and no component
// whose native value boxes into an allocation of its own.
func valuesDB(t testing.TB) *Database {
	t.Helper()
	var b strings.Builder
	b.WriteString(`TYPE st = (student, technician, assistant, professor);
VAR r : RELATION <n, s> OF RECORD n : 0..200; s : st; b : BOOLEAN END;
r :+ [`)
	labels := []string{"student", "technician", "assistant", "professor"}
	for i := 0; i < 600; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "<%d, %s, %v>", i%150, labels[i/150], i%3 == 0)
	}
	b.WriteString("];\n")
	db, err := Open(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

const valuesQuery = `[<x.n, x.s, x.b> OF EACH x IN r: x.n >= 0]`

// TestRowsValuesKeptRows: the rows Values returns are the caller's —
// rows kept from earlier Next calls stay intact after later calls,
// after the chunk they were cut from is used up, after the cursor is
// closed, and after one of them is appended to.
func TestRowsValuesKeptRows(t *testing.T) {
	db := valuesDB(t)
	res, err := db.Query(valuesQuery)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Rows()
	rows, err := db.QueryRows(context.Background(), valuesQuery)
	if err != nil {
		t.Fatal(err)
	}
	var kept [][]any
	for rows.Next() {
		kept = append(kept, rows.Values())
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	if len(kept) != 600 || len(want) != 600 {
		t.Fatalf("kept %d rows, the materialized result has %d, want 600", len(kept), len(want))
	}
	for i := range kept {
		kept[i] = append(kept[i], "appended")
		if cap(kept[i]) < 4 {
			t.Fatalf("row %d: append left capacity %d", i, cap(kept[i]))
		}
	}
	key := func(rows [][]any) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprint(r[:3]...)
		}
		slices.Sort(out)
		return out
	}
	if got, w := key(kept), key(want); !slices.Equal(got, w) {
		t.Fatalf("kept rows differ from the materialized result:\n%v\nwant\n%v", got[:5], w[:5])
	}
	for i, r := range kept {
		if len(r) != 4 || r[3] != "appended" {
			t.Fatalf("row %d = %v: a later append overwrote it", i, r)
		}
	}
}

// TestRowsValuesAllocs: draining a prepared statement through Values
// allocates nothing per row — a slab per construction chunk — over a
// result whose components box without allocating.
func TestRowsValuesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	db := valuesDB(t)
	st, err := db.Prepare(valuesQuery)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	drain := func(values bool) func() {
		return func() {
			rows, err := st.Rows(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for rows.Next() {
				if values {
					rows.Values()
				}
			}
			rows.Close()
		}
	}
	plain := testing.AllocsPerRun(20, drain(false))
	withValues := testing.AllocsPerRun(20, drain(true))
	if perRow := (withValues - plain) / 600; perRow > 0.05 {
		t.Fatalf("Values allocates %.3f objects per row (%.0f per drain, %.0f without Values)", perRow, withValues, plain)
	}
}
