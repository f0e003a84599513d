package server

import (
	"reflect"
	"strings"
	"testing"

	"pascalr/client"
)

// TestClientRowsScan drives client.Rows.Scan over a cursor with an
// integer, a string, an enumeration and a boolean column: typed
// destinations read the column vectors, a kind mismatch or an unknown
// destination type is an error naming the column, and Scan without a
// current row fails.
func TestClientRowsScan(t *testing.T) {
	srv, _ := newTestServer(t, 25, 4, false)
	conn := dial(t, srv)
	if err := conn.Exec(`TYPE fnrtype = 1..9;
VAR flags : RELATION <fnr> OF RECORD fnr : fnrtype; fon : BOOLEAN END;
flags :+ [<1, TRUE>, <2, FALSE>];`); err != nil {
		t.Fatal(err)
	}
	st, err := conn.Prepare(`[<e.enr, e.ename, e.estatus, f.fon> OF EACH e IN employees, EACH f IN flags: (e.enr = f.fnr)]`, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	res, err := conn.Query(`[<e.enr, e.ename, e.estatus, f.fon> OF EACH e IN employees, EACH f IN flags: (e.enr = f.fnr)]`, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := st.Execute()
	if err != nil {
		t.Fatal(err)
	}
	rows.FetchSize = 1
	var (
		enr    int64
		n      int
		name   string
		status string
		on     bool
		native any
	)
	if err := rows.Scan(&enr, &name, &status, &on); err == nil || !strings.Contains(err.Error(), "without a successful Next") {
		t.Fatalf("Scan before Next: %v", err)
	}
	var got [][]any
	for rows.Next() {
		if err := rows.Scan(&enr, &name, &status, &on); err != nil {
			t.Fatal(err)
		}
		if err := rows.Scan(&n, &native, &native, &native); err != nil {
			t.Fatal(err)
		}
		if int64(n) != enr || native != on {
			t.Fatalf("*int / *any read %d, %v; want %d, %v", n, native, enr, on)
		}
		if vals := rows.Values(); !reflect.DeepEqual(vals, []any{enr, name, status, on}) {
			t.Fatalf("Values %v disagree with Scan %v %q %q %v", vals, enr, name, status, on)
		}
		got = append(got, []any{enr, name, status, on})

		for _, bad := range []struct {
			dest []any
			col  string
		}{
			{[]any{&name, &name, &status, &on}, "enr"},
			{[]any{&enr, &enr, &status, &on}, "ename"},
			{[]any{&enr, &name, &on, &on}, "estatus"},
			{[]any{&enr, &name, &status, &status}, "fon"},
			{[]any{&enr, &name, &status, new(float64)}, "fon"},
		} {
			if err := rows.Scan(bad.dest...); err == nil || !strings.Contains(err.Error(), "column "+bad.col) {
				t.Fatalf("mismatched Scan on column %s: %v", bad.col, err)
			}
		}
		if err := rows.Scan(&enr); err == nil {
			t.Fatal("Scan with too few destinations succeeded")
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res.Rows) || len(got) != 2 {
		t.Fatalf("scanned rows %v, query rows %v", got, res.Rows)
	}
	if err := rows.Scan(&enr, &name, &status, &on); err == nil {
		t.Fatal("Scan after the last row succeeded")
	}
}
