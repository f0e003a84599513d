package pascalr

import (
	"context"
	"reflect"
	"testing"

	"pascalr/internal/workload"
)

// TestPlanCacheSessionIsolation is the two-session differential proof
// that the shared plan cache cannot be poisoned across sessions with
// different execution options: compile-relevant options (planner
// choice, strategy set) key separate entries, the execution-time option
// (the reference budget) is re-applied per call, and every
// cache hit is bit-identical — result rows and counter fingerprint —
// to a cold compile under the same session's options.
func TestPlanCacheSessionIsolation(t *testing.T) {
	script, err := workload.UniversityScript(40)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(script)
	if err != nil {
		t.Fatal(err)
	}
	const q = `[<e.ename, c.cnr> OF EACH e IN employees, EACH c IN courses, EACH t IN timetable:
		(e.enr = t.tenr) AND (c.cnr = t.tcnr)]`

	// Session A keeps the database defaults (static planner, no
	// budget); session B plans cost-based under a generous budget.
	a := db.NewSession()
	b := db.NewSession()
	b.SetOptions(WithCostBased(), WithMaxRefTuples(1<<30))

	ctx := context.Background()
	run := func(f func() (*Result, error)) (string, [][]any) {
		t.Helper()
		db.ResetStats()
		res, err := f()
		if err != nil {
			t.Fatal(err)
		}
		return db.StatsFingerprint(), res.Rows()
	}

	// Warm one cache entry per compile configuration.
	fpA1, rowsA1 := run(func() (*Result, error) { return a.Query(ctx, q) })
	fpB1, rowsB1 := run(func() (*Result, error) { return b.Query(ctx, q) })
	if got := db.plans.len(); got != 2 {
		t.Fatalf("plan cache entries = %d, want 2: the static and cost-based compiles must key separately", got)
	}

	// Hits must replay exactly what each session's cold compile does.
	fpA2, rowsA2 := run(func() (*Result, error) { return a.Query(ctx, q) })
	fpAcold, rowsAcold := run(func() (*Result, error) { return a.Query(ctx, q, WithoutPlanCache()) })
	if fpA1 != fpA2 || fpA2 != fpAcold {
		t.Errorf("session A fingerprints diverge: warm=%s hit=%s cold=%s", fpA1, fpA2, fpAcold)
	}
	if !reflect.DeepEqual(rowsA1, rowsA2) || !reflect.DeepEqual(rowsA2, rowsAcold) {
		t.Error("session A rows diverge between warm, hit, and cold runs")
	}

	fpB2, rowsB2 := run(func() (*Result, error) { return b.Query(ctx, q) })
	fpBcold, rowsBcold := run(func() (*Result, error) { return b.Query(ctx, q, WithoutPlanCache()) })
	if fpB1 != fpB2 || fpB2 != fpBcold {
		t.Errorf("session B fingerprints diverge: warm=%s hit=%s cold=%s", fpB1, fpB2, fpBcold)
	}
	if !reflect.DeepEqual(rowsB1, rowsB2) || !reflect.DeepEqual(rowsB2, rowsBcold) {
		t.Error("session B rows diverge between warm, hit, and cold runs")
	}

	// Cold compiles must not have grown the cache, and the interleaved
	// B executions must not have disturbed A's entry.
	if got := db.plans.len(); got != 2 {
		t.Fatalf("plan cache entries = %d after cold runs, want 2 (WithoutPlanCache must not insert)", got)
	}
	fpA3, rowsA3 := run(func() (*Result, error) { return a.Query(ctx, q) })
	if fpA3 != fpA1 || !reflect.DeepEqual(rowsA3, rowsA1) {
		t.Error("session A's cached plan changed after session B executions")
	}

	// A per-call budget overrides the session's for that call only: it
	// fails the call and leaves B's cached plan as it was.
	if _, err := b.Query(ctx, q, WithMaxRefTuples(1)); err == nil {
		t.Fatal("a budget of one reference tuple did not abort the query")
	}
	fpB3, rowsB3 := run(func() (*Result, error) { return b.Query(ctx, q) })
	if fpB3 != fpB1 || !reflect.DeepEqual(rowsB3, rowsB1) {
		t.Error("session B's cached plan changed after a call with its own budget")
	}
}
