package pascalr

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// sampleScript declares the Figure 1 database and a hand-checkable
// population (the same instance the engine tests use).
const sampleScript = `
TYPE statustype = (student, technician, assistant, professor);
     nametype   = PACKED ARRAY [1..10] OF char;
     titletype  = PACKED ARRAY [1..40] OF char;
     roomtype   = PACKED ARRAY [1..5] OF char;
     yeartype   = 1900..1999;
     timetype   = 8000900..18002000;
     daytype    = (monday, tuesday, wednesday, thursday, friday);
     leveltype  = (freshman, sophomore, junior, senior);
     enumbertype = 1..99;
     cnumbertype = 1..99;

VAR employees : RELATION <enr> OF
      RECORD enr : enumbertype; ename : nametype; estatus : statustype END;
    papers : RELATION <ptitle, penr> OF
      RECORD penr : enumbertype; pyear : yeartype; ptitle : titletype END;
    courses : RELATION <cnr> OF
      RECORD cnr : cnumbertype; clevel : leveltype; ctitle : titletype END;
    timetable : RELATION <tenr, tcnr, tday> OF
      RECORD tenr : enumbertype; tcnr : cnumbertype; tday : daytype;
             ttime : timetype; troom : roomtype END;

employees :+ [<1, 'ada', professor>, <2, 'bob', student>,
              <3, 'cyd', professor>, <4, 'dan', professor>];
papers    :+ [<1, 1977, 't1'>, <3, 1980, 't2'>];
courses   :+ [<10, sophomore, 'c10'>, <11, senior, 'c11'>];
timetable :+ [<1, 11, monday, 9000900, 'R1'>, <3, 10, tuesday, 9000900, 'R2'>];
`

// example21 is the paper's sample query.
const example21 = `
[<e.ename> OF EACH e IN employees:
  (e.estatus = professor)
  AND
  (ALL p IN papers ((p.pyear <> 1977) OR (e.enr <> p.penr))
   OR
   SOME c IN courses ((c.clevel <= sophomore)
     AND SOME t IN timetable ((c.cnr = t.tcnr) AND (e.enr = t.tenr))))]
`

func names(t *testing.T, r *Result) []string {
	t.Helper()
	var out []string
	for _, row := range r.Rows() {
		out = append(out, row[0].(string))
	}
	sort.Strings(out)
	return out
}

func TestQuickstartFlow(t *testing.T) {
	db, err := Open(sampleScript)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(example21)
	if err != nil {
		t.Fatal(err)
	}
	got := names(t, res)
	if len(got) != 2 || got[0] != "cyd" || got[1] != "dan" {
		t.Errorf("Example 2.1 = %v", got)
	}
	if cols := res.Columns(); len(cols) != 1 || cols[0] != "ename" {
		t.Errorf("columns = %v", cols)
	}
	if !strings.Contains(res.String(), "cyd") {
		t.Errorf("table rendering missing data:\n%s", res)
	}
}

func TestStrategySubsetsAgree(t *testing.T) {
	db, err := Open(sampleScript)
	if err != nil {
		t.Fatal(err)
	}
	want := names(t, db.MustQuery(example21, WithBaseline()))
	for _, s := range []Strategy{NoStrategies, S1, S1 | S2, S1 | S2 | S3, AllStrategies} {
		got := names(t, db.MustQuery(example21, WithStrategies(s)))
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%v: got %v, want %v", s, got, want)
		}
	}
}

// TestCostBasedThroughPublicAPI checks that WithCostBased yields the
// same result as the static planner and surfaces in EXPLAIN output.
func TestCostBasedThroughPublicAPI(t *testing.T) {
	db, err := Open(sampleScript)
	if err != nil {
		t.Fatal(err)
	}
	static := names(t, db.MustQuery(example21))
	cost := names(t, db.MustQuery(example21, WithCostBased()))
	if strings.Join(static, ",") != strings.Join(cost, ",") {
		t.Errorf("cost-based result %v differs from static %v", cost, static)
	}
	plan, err := db.Explain(example21, WithCostBased())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "cost-based") {
		t.Errorf("EXPLAIN under WithCostBased missing ordering note:\n%s", plan)
	}
}

func TestExecStatements(t *testing.T) {
	db, err := Open(sampleScript)
	if err != nil {
		t.Fatal(err)
	}
	// Assignment creates a result relation that can be queried again.
	err = db.Exec(`profs := [<e.ename> OF EACH e IN employees: e.estatus = professor];`)
	if err != nil {
		t.Fatal(err)
	}
	n, err := db.RelationLen("profs")
	if err != nil || n != 3 {
		t.Errorf("profs has %d rows, err %v", n, err)
	}
	// Delete and insert through the paper's operators.
	if err := db.Exec(`employees :- [<'t?', 0>];`); err == nil {
		t.Errorf("bad key tuple accepted")
	}
	if err := db.Exec(`employees :- [<2>];`); err != nil {
		t.Fatal(err)
	}
	n, _ = db.RelationLen("employees")
	if n != 3 {
		t.Errorf("employees after delete = %d", n)
	}
	// Insert from a selection.
	if err := db.Exec(`employees :+ [<e.enr, e.ename, e.estatus> OF EACH e IN employees: e.enr = 1];`); err != nil {
		t.Fatal(err)
	}
	// Re-assignment replaces contents.
	if err := db.Exec(`profs := [<e.ename> OF EACH e IN employees: e.enr = 1];`); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.RelationLen("profs"); n != 1 {
		t.Errorf("reassigned profs = %d", n)
	}
}

func TestDumpAndRelations(t *testing.T) {
	db, _ := Open(sampleScript)
	rels := db.Relations()
	if len(rels) != 4 || rels[0] != "employees" {
		t.Errorf("Relations = %v", rels)
	}
	dump, err := db.Dump("courses")
	if err != nil || dump.Len() != 2 {
		t.Fatalf("Dump = %v, %v", dump, err)
	}
	// Enum labels render as labels, not ordinals.
	found := false
	for _, row := range dump.Rows() {
		if row[1] == "sophomore" {
			found = true
		}
	}
	if !found {
		t.Errorf("enum label not rendered: %v", dump.Rows())
	}
	if _, err := db.Dump("ghost"); err == nil {
		t.Errorf("Dump of unknown relation succeeded")
	}
}

func TestStatsAccumulateAndReset(t *testing.T) {
	db, _ := Open(sampleScript)
	db.ResetStats()
	db.MustQuery(example21, WithStrategies(AllStrategies))
	st := db.Stats()
	if st.TotalScans == 0 || st.TuplesRead == 0 {
		t.Errorf("stats empty after query: %+v", st)
	}
	db.ResetStats()
	if db.Stats().TotalScans != 0 {
		t.Errorf("ResetStats did not clear")
	}
}

func TestScanCountClaimThroughPublicAPI(t *testing.T) {
	// The paper's headline S1 claim, observable through the public API:
	// with S1 each relation is scanned at most once.
	db, _ := Open(sampleScript)
	db.ResetStats()
	db.MustQuery(example21, WithStrategies(S1))
	for rel, n := range db.Stats().ScansOf {
		if n > 1 {
			t.Errorf("S1 scanned %s %d times", rel, n)
		}
	}
	db.ResetStats()
	db.MustQuery(example21, WithStrategies(NoStrategies))
	if db.Stats().ScansOf["employees"] < 2 {
		t.Errorf("S0 scanned employees %d times, expected several", db.Stats().ScansOf["employees"])
	}
}

func TestExplain(t *testing.T) {
	db, _ := Open(sampleScript)
	for _, s := range []Strategy{NoStrategies, AllStrategies} {
		out, err := db.Explain(example21, WithStrategies(s))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "collection phase") {
			t.Errorf("explain output incomplete:\n%s", out)
		}
	}
}

func TestParseStrategy(t *testing.T) {
	cases := map[string]Strategy{
		"s0": NoStrategies, "": NoStrategies, "all": AllStrategies,
		"s1": S1, "s1+s3": S1 | S3, "S1,S2,S4": S1 | S2 | S4,
	}
	for in, want := range cases {
		got, err := ParseStrategy(in)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseStrategy("s9"); err == nil {
		t.Errorf("bad strategy accepted")
	}
}

func TestQueryErrors(t *testing.T) {
	db, _ := Open(sampleScript)
	if _, err := db.Query(`[<e.ename> OF EACH e IN nobody: TRUE]`); err == nil {
		t.Errorf("unknown relation accepted")
	}
	if _, err := db.Query(`[<e.ghost> OF EACH e IN employees: TRUE]`); err == nil {
		t.Errorf("unknown component accepted")
	}
	if _, err := db.Query(`syntax error`); err == nil {
		t.Errorf("syntax error accepted")
	}
	if err := db.Exec(`ghost :+ [<1>];`); err == nil {
		t.Errorf("insert into unknown relation accepted")
	}
	// Budget guard.
	if _, err := db.Query(example21, WithStrategies(NoStrategies), WithMaxRefTuples(1)); err == nil {
		t.Errorf("ref-tuple budget not enforced")
	}
}

func TestCreateIndexThroughPublicAPI(t *testing.T) {
	db, _ := Open(sampleScript)
	if err := db.CreateIndex("timetable", "tcnr"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("timetable", "tcnr"); err == nil {
		t.Errorf("duplicate index accepted")
	}
	if err := db.CreateIndex("ghost", "x"); err == nil {
		t.Errorf("unknown relation accepted")
	}
	if err := db.CreateIndex("timetable", "ghost"); err == nil {
		t.Errorf("unknown component accepted")
	}
	// Queries still produce the same answers, and the index stays
	// consistent under subsequent inserts.
	db.MustExec(`timetable :+ [<4, 10, wednesday, 9000900, 'R9'>];`)
	got := names(t, db.MustQuery(example21))
	want := names(t, db.MustQuery(example21, WithBaseline()))
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("indexed query = %v, oracle = %v", got, want)
	}
}

func TestLemma1ThroughPublicAPI(t *testing.T) {
	db, _ := Open(sampleScript)
	// Empty papers: ALL over the empty relation is TRUE, so all three
	// professors qualify — the adapted standard form of Example 2.2.
	db.MustExec(`papers := [<p.penr, p.pyear, p.ptitle> OF EACH p IN papers: p.pyear = 1900];`)
	if n, _ := db.RelationLen("papers"); n != 0 {
		t.Fatalf("papers not emptied")
	}
	got := names(t, db.MustQuery(example21))
	if len(got) != 3 {
		t.Errorf("with papers=[]: %v, want 3 professors", got)
	}
}

// TestExecDeleteProbeError: a delete statement whose key probe cannot
// read the SSTable holding the key fails, rather than passing as the
// no-op of an absent key. The block cache is off so the probe reads the
// file itself.
func TestExecDeleteProbeError(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir, WithBlockCacheBytes(-1), WithCheckpointWALBytes(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.MustExec(sampleScript)
	if err := db.Checkpoint(); err != nil { // flushes every relation into an SSTable
		t.Fatal(err)
	}
	// employees is relation 0; keep only its table's 8-byte magic.
	tables, err := filepath.Glob(filepath.Join(dir, "r0-*.sst"))
	if err != nil || len(tables) != 1 {
		t.Fatalf("employees tables = %v (%v), want one", tables, err)
	}
	if err := os.Truncate(tables[0], 8); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(`employees :- [<1>];`); err == nil {
		t.Fatal("delete over an unreadable key probe succeeded")
	}
	if n, err := db.RelationLen("employees"); err != nil || n != 4 {
		t.Fatalf("employees after the failed delete = %d (%v), want 4", n, err)
	}
}

// TestReadsOverUnreadableTable: a relation whose SSTable cannot be
// read must make every read of it fail — Dump and the baseline oracle
// as well as the engine — rather than answer with the rows that happen
// to be readable. The block cache is off so each read hits the file.
func TestReadsOverUnreadableTable(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir, WithBlockCacheBytes(-1), WithCheckpointWALBytes(-1))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.MustExec(sampleScript)
	if err := db.Checkpoint(); err != nil { // flushes every relation into an SSTable
		t.Fatal(err)
	}
	// employees is relation 0; keep only its table's 8-byte magic.
	tables, err := filepath.Glob(filepath.Join(dir, "r0-*.sst"))
	if err != nil || len(tables) != 1 {
		t.Fatalf("employees tables = %v (%v), want one", tables, err)
	}
	if err := os.Truncate(tables[0], 8); err != nil {
		t.Fatal(err)
	}
	if res, err := db.Dump("employees"); err == nil {
		t.Fatalf("Dump over an unreadable table returned %d rows and no error", res.Len())
	}
	const q = `[<e.ename> OF EACH e IN employees: TRUE]`
	if res, err := db.Query(q, WithBaseline()); err == nil {
		t.Fatalf("baseline query over an unreadable table returned %d rows and no error", res.Len())
	}
	if res, err := db.Query(q); err == nil {
		t.Fatalf("engine query over an unreadable table returned %d rows and no error", res.Len())
	}
}

// TestExecDeleteAbsentKeyIsNoOp: a delete statement naming a key that
// is not in the relation succeeds and changes nothing, in memory and on
// disk (where the key probe also reads the checkpointed SSTable).
func TestExecDeleteAbsentKeyIsNoOp(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(t *testing.T) *Database
	}{
		{"memory", func(t *testing.T) *Database {
			db, err := Open(sampleScript)
			if err != nil {
				t.Fatal(err)
			}
			return db
		}},
		{"dir", func(t *testing.T) *Database {
			db, err := OpenDir(t.TempDir(), WithCheckpointWALBytes(-1))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			db.MustExec(sampleScript)
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			return db
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := tc.open(t)
			if err := db.Exec(`employees :- [<99>];`); err != nil {
				t.Fatalf("delete of an absent key: %v", err)
			}
			if n, err := db.RelationLen("employees"); err != nil || n != 4 {
				t.Fatalf("employees after the no-op delete = %d (%v), want 4", n, err)
			}
		})
	}
}

// TestExecDeleteSurvivesReopen: a delete statement of a checkpointed
// key removes it from the SSTable-resident relation, and the removal
// survives closing and reopening the directory.
func TestExecDeleteSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDir(dir, WithCheckpointWALBytes(-1))
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(sampleScript)
	if err := db.Checkpoint(); err != nil { // flushes every relation into an SSTable
		t.Fatal(err)
	}
	if err := db.Exec(`employees :- [<1>, <3>];`); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	r, err := db.Query(`[<e.ename> OF EACH e IN employees: e.enr >= 1]`)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(t, r); len(got) != 2 || got[0] != "bob" || got[1] != "dan" {
		t.Fatalf("employees after reopen = %v, want [bob dan]", got)
	}
}
