package engine

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"pascalr/internal/baseline"
	"pascalr/internal/calculus"
	"pascalr/internal/obs"
	"pascalr/internal/parser"
	"pascalr/internal/relation"
	"pascalr/internal/value"
	"pascalr/internal/workload"
)

// compileSrc parses, checks and compiles a selection under every
// strategy.
func compileSrc(t *testing.T, db *relation.DB, src string) (*Plan, *calculus.Selection, *calculus.Info) {
	t.Helper()
	sel, err := parser.ParseSelection(src)
	if err != nil {
		t.Fatal(err)
	}
	checked, info, err := calculus.Check(sel, db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := New(db, nil).Compile(checked, info, Options{Strategies: AllStrategies})
	if err != nil {
		t.Fatal(err)
	}
	return plan, checked, info
}

// drain returns the encoded rows a cursor yields, in order.
func drain(t *testing.T, cur *Cursor) []string {
	t.Helper()
	defer cur.Close()
	var keys []string
	for cur.Next() {
		keys = append(keys, value.EncodeKey(cur.Row()))
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	return keys
}

// constructionQueries project away most of what the combination phase
// joined, so many reference tuples collapse onto few result rows, and
// mix integer, string and enumeration components.
var constructionQueries = []string{
	`[<e.estatus> OF EACH e IN employees, EACH t IN timetable: (e.enr = t.tenr)]`,
	`[<t.tday, e.estatus> OF EACH e IN employees, EACH t IN timetable: (e.enr = t.tenr)]`,
	`[<e.ename, t.troom, t.tcnr, t.tday> OF EACH e IN employees, EACH t IN timetable: (e.enr = t.tenr)]`,
	`[<c.clevel> OF EACH c IN courses: SOME t IN timetable ((c.cnr = t.tcnr))]`,
}

// TestCursorForcedHashCollisions forces every row onto one hash: the
// construction set must then find duplicates through value.Equal
// alone, yielding the same tuple sequence as the default hash and the
// same set as the tuple-substitution baseline.
func TestCursorForcedHashCollisions(t *testing.T) {
	db := workload.MustUniversity(workload.DefaultConfig(40))
	ctx := context.Background()
	for _, src := range constructionQueries {
		plan, checked, info := compileSrc(t, db, src)
		cur, err := plan.Rows(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want := drain(t, cur)

		rowHash = func([]value.Value) uint64 { return 42 }
		cur, err = plan.Rows(ctx)
		if err != nil {
			rowHash = hashRow
			t.Fatal(err)
		}
		got := drain(t, cur)
		rowHash = hashRow

		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Fatalf("%s: colliding hash changed the tuple sequence:\n got %q\nwant %q", src, got, want)
		}
		base, err := baseline.Eval(checked, info, db)
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(got)
		if g, w := strings.Join(got, "|"), resultKey(base); g != w {
			t.Fatalf("%s: cursor set != baseline\ncursor:   %s\nbaseline: %s", src, g, w)
		}
		if len(got) == 0 {
			t.Fatalf("%s: empty result exercises nothing", src)
		}
	}
}

// TestRowSetTruncate drops the tail of the set and re-adds it: the
// dropped rows are new again, the kept ones still duplicates, across
// arena block boundaries.
func TestRowSetTruncate(t *testing.T) {
	row := func(i int) []value.Value {
		return []value.Value{value.Int(int64(i % 700)), value.String_(strings.Repeat("x", i%3))}
	}
	// row(i) repeats with period lcm(700, 3) = 2100.
	var s rowSet
	s.w = 2
	for i := 0; i < 4200; i++ {
		if got, want := s.add(row(i), 4200-i), i < 2100; got != want {
			t.Fatalf("add(%d) = %v, want %v", i, got, want)
		}
	}
	if s.n != 2100 {
		t.Fatalf("n = %d, want 2100 distinct rows", s.n)
	}
	s.truncate(300)
	for i := 0; i < 2100; i++ {
		if got, want := s.add(row(i), 2100-i), i >= 300; got != want {
			t.Fatalf("after truncate: add(%d) = %v, want %v", i, got, want)
		}
	}
	for k := 0; k < s.n; k++ {
		if !rowsEqual(s.row(k), row(k)) {
			t.Fatalf("row %d = %v, want %v", k, s.row(k), row(k))
		}
	}
}

// TestCursorRebuildsAfterMutation commits a write to another relation
// mid-stream: the unyielded rows of the chunk are rebuilt against the
// new version, and the stream is still exactly the result, once.
func TestCursorRebuildsAfterMutation(t *testing.T) {
	db := workload.MustUniversity(workload.DefaultConfig(40))
	ctx := context.Background()
	plan, _, _ := compileSrc(t, db, constructionQueries[2])
	cur, err := plan.Rows(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, cur)

	cur, err = plan.Rows(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for i := 0; cur.Next(); i++ {
		got = append(got, value.EncodeKey(cur.Row()))
		if i%7 == 3 {
			if _, err := db.MustRelation("papers").Insert([]value.Value{value.Int(int64(1 + i%40)), value.Int(int64(1900 + i)), value.String_("rebuild")}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	cur.Close()
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("stream changed under an unrelated write:\n got %d rows\nwant %d rows", len(got), len(want))
	}
}

// TestCursorSeedSkipsYielded resumes a stream in a second execution:
// seeded with what the first cursor yielded, it yields exactly the
// rest.
func TestCursorSeedSkipsYielded(t *testing.T) {
	db := workload.MustUniversity(workload.DefaultConfig(40))
	ctx := context.Background()
	plan, _, _ := compileSrc(t, db, constructionQueries[2])
	cur, err := plan.Rows(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := drain(t, cur)
	if len(want) < 20 {
		t.Fatalf("only %d rows", len(want))
	}

	first, err := plan.Rows(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for len(got) < 17 && first.Next() {
		got = append(got, value.EncodeKey(first.Row()))
	}
	second, err := plan.Rows(ctx)
	if err != nil {
		t.Fatal(err)
	}
	second.Seed(first)
	first.Close()
	got = append(got, drain(t, second)...)
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("resumed stream diverges: got %d rows, want %d", len(got), len(want))
	}
}

// TestExplainCountsRepeatedJoinRefs pins the indirect-join
// cardinalities on a join where one employee's reference repeats
// across pairs: actual.<v> counts distinct references, on the scan
// spans and in the EXPLAIN text alike.
func TestExplainCountsRepeatedJoinRefs(t *testing.T) {
	db := tinyUniversity(t)
	tt := db.MustRelation("timetable")
	for _, tup := range [][]value.Value{
		{value.Int(1), value.Int(10), value.Enum("daytype", 2), value.Int(9001000), value.String_("R3")},
		{value.Int(1), value.Int(11), value.Enum("daytype", 3), value.Int(9001100), value.String_("R4")},
	} {
		if _, err := tt.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	plan, _, _ := compileSrc(t, db, `[<e.ename, t.troom> OF EACH e IN employees, EACH t IN timetable: (e.enr = t.tenr)]`)
	tr := obs.NewTrace("")
	text, err := plan.Explain(obs.With(context.Background(), tr.Root()))
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	for _, line := range []string{
		"actual 2 (indirect joins)", // e: employees 1 and 3, employee 1 in three pairs
		"actual 4 (indirect joins)", // t: four timetable entries
		"result: 4 tuples",
	} {
		if !strings.Contains(text, line) {
			t.Fatalf("EXPLAIN lacks %q:\n%s", line, text)
		}
	}
	attrs := map[string]string{}
	var walk func(s obs.SpanJSON)
	walk = func(s obs.SpanJSON) {
		for k, v := range s.Attrs {
			attrs[k] = v
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(tr.Snapshot().Root)
	for k, v := range map[string]string{
		"actual.e": "2", "via.e": "indirect joins",
		"actual.t": "4", "via.t": "indirect joins",
	} {
		if attrs[k] != v {
			t.Errorf("span attribute %s = %q, want %q", k, attrs[k], v)
		}
	}
}

// TestExplainExecutionLine pins EXPLAIN's execution summary: one scan
// per relation, the batch total of this execution (the scan spans'
// attributes summed), and nothing after it. Explaining the same plan
// twice reports the same line, so the counters are per execution and
// do not accumulate on the compiled plan.
func TestExplainExecutionLine(t *testing.T) {
	db := tinyUniversity(t)
	plan, _, _ := compileSrc(t, db, `[<e.ename, t.troom> OF EACH e IN employees, EACH t IN timetable: (e.enr = t.tenr)]`)
	explain := func() (line string, batches int64) {
		tr := obs.NewTrace("")
		text, err := plan.Explain(obs.With(context.Background(), tr.Root()))
		if err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		for _, l := range strings.Split(text, "\n") {
			if strings.HasPrefix(l, "execution: ") {
				line = l
			}
		}
		var walk func(s obs.SpanJSON)
		walk = func(s obs.SpanJSON) {
			if b, ok := s.Attrs["batches"]; ok {
				n, _ := strconv.ParseInt(b, 10, 64)
				batches += n
			}
			for _, c := range s.Children {
				walk(c)
			}
		}
		walk(tr.Snapshot().Root)
		return line, batches
	}
	line, batches := explain()
	if batches == 0 {
		t.Fatalf("scan spans report no batches; execution line %q", line)
	}
	if want := fmt.Sprintf("execution: 2 scans (%d batches)", batches); line != want {
		t.Fatalf("execution line = %q, want %q", line, want)
	}
	if again, _ := explain(); again != line {
		t.Fatalf("second EXPLAIN reports %q, first %q", again, line)
	}
}
