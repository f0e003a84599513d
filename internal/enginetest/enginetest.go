// Package enginetest is the differential test harness for the query
// engine: every query in the table of queries.go runs under every
// strategy combination — and under the static, uniform-cost, and
// histogram-cost planners, the latter two fed by the live incremental
// statistics with no Analyze pass — and must produce exactly the
// relation the tuple-substitution baseline produces. Each configuration
// is exercised three ways: as a one-shot Eval and twice through a
// compiled Plan (the second time via the streaming cursor) — proving
// that plan reuse and streaming construction are result-identical to
// compile-and-run. The static-planner counters of
// the golden workloads are additionally pinned by
// testdata/counters.golden (golden.go). The pattern
// follows go-mysql-server's enginetest: a declarative query table, a set
// of workload databases, and one runner that cross-checks all engine
// configurations against the oracle, so a new query or a new planner
// feature is covered by adding one table entry.
package enginetest

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"pascalr/internal/baseline"
	"pascalr/internal/calculus"
	"pascalr/internal/engine"
	"pascalr/internal/parser"
	"pascalr/internal/relation"
	"pascalr/internal/stats"
	"pascalr/internal/value"
)

// StrategySets returns all 32 combinations of the paper's four
// optimization strategies — S0 through S1+S2+S3+S4 — each with and
// without the CNF range extension of section 4.3.
func StrategySets() []engine.Strategy {
	out := make([]engine.Strategy, 0, 32)
	for s := engine.Strategy(0); s <= engine.AllStrategies; s++ {
		out = append(out, s, s|engine.SCNF)
	}
	return out
}

// RelKey renders result rows as a sorted string, for order-independent
// equality.
func RelKey(rows [][]value.Value) string {
	var keys []string
	for _, tup := range rows {
		keys = append(keys, value.EncodeKey(tup))
	}
	sort.Strings(keys)
	return strings.Join(keys, "|")
}

// PlannerModes returns the three planner configurations the harness
// cross-checks: the paper's static plan, the cost-based plan restricted
// to the System R uniformity formulas, and the cost-based plan reading
// the histograms. The statistics are the database's live, incrementally
// maintained ones — deliberately NOT an Analyze pass, so every matrix
// run also proves the incremental maintenance yields working plans.
func PlannerModes(db *relation.DB) []PlannerMode {
	est := db.Estimator()
	return []PlannerMode{
		{Name: "static", Est: nil},
		{Name: "uniform", Est: est.Uniform()},
		{Name: "hist", Est: est},
	}
}

// PlannerMode is one planner configuration of the differential matrix.
type PlannerMode struct {
	Name string
	Est  *stats.Estimator
}

// RunSelection evaluates one checked selection against the baseline and
// against every strategy set × {static, uniform-cost, histogram-cost}
// planner, failing the test on any disagreement. Each configuration
// runs three times: once through the one-shot Eval (with instrumented
// counters), then twice against a single compiled Plan — the first
// reuse materialized, the second streamed through the cursor. It
// returns the baseline's row count so callers can assert workload
// coverage.
func RunSelection(t *testing.T, label string, db *relation.DB, sel *calculus.Selection, info *calculus.Info) int {
	t.Helper()
	ctx := context.Background()
	want, err := baseline.Eval(sel, info, db)
	if err != nil {
		t.Fatalf("%s: baseline: %v", label, err)
	}
	wantKey := RelKey(want)
	modes := PlannerModes(db) // the DB is not mutated during the matrix
	for _, strat := range StrategySets() {
		for _, mode := range modes {
			opts := engine.Options{Strategies: strat, CostBased: mode.Est != nil, Estimator: mode.Est}
			st := &stats.Counters{}
			eng := engine.New(db, st)
			got, err := eng.Eval(ctx, sel, info, opts)
			if err != nil {
				t.Fatalf("%s [%s %s]: engine: %v", label, strat, mode.Name, err)
			}
			if gotKey := RelKey(got); gotKey != wantKey {
				t.Fatalf("%s [%s %s]: result mismatch\nwant %d rows, got %d rows\nquery: %s",
					label, strat, mode.Name, len(want), len(got), sel)
			}
			if mode.Est == nil {
				// The static legs are deterministic: pinned by the golden
				// file. Checked before the prepared re-runs accumulate
				// into the same engine sink.
				checkGolden(t, label, strat, len(want), st.Fingerprint())
			}
			plan, err := eng.Compile(sel, info, opts)
			if err != nil {
				t.Fatalf("%s [%s %s]: compile: %v", label, strat, mode.Name, err)
			}
			prepared, err := plan.Eval(ctx)
			if err != nil {
				t.Fatalf("%s [%s %s]: prepared run 1: %v", label, strat, mode.Name, err)
			}
			if gotKey := RelKey(prepared); gotKey != wantKey {
				t.Fatalf("%s [%s %s]: prepared run 1 mismatch\nwant %d rows, got %d rows\nquery: %s",
					label, strat, mode.Name, len(want), len(prepared), sel)
			}
			if gotKey, err := cursorKey(plan, ctx); err != nil {
				t.Fatalf("%s [%s %s]: prepared run 2 (cursor): %v", label, strat, mode.Name, err)
			} else if gotKey != wantKey {
				t.Fatalf("%s [%s %s]: prepared run 2 (cursor) mismatch\nquery: %s",
					label, strat, mode.Name, sel)
			}
		}
	}
	return len(want)
}

// cursorKey re-executes a compiled plan through the streaming cursor and
// renders the yielded tuples as a sorted key.
func cursorKey(plan *engine.Plan, ctx context.Context) (string, error) {
	cur, err := plan.Rows(ctx)
	if err != nil {
		return "", err
	}
	defer cur.Close()
	var keys []string
	for cur.Next() {
		keys = append(keys, value.EncodeKey(cur.Row()))
	}
	if err := cur.Err(); err != nil {
		return "", err
	}
	sort.Strings(keys)
	return strings.Join(keys, "|"), nil
}

// RunQuery parses a query source against db's catalog, checks it, and
// runs the full differential matrix.
func RunQuery(t *testing.T, label string, db *relation.DB, src string) int {
	t.Helper()
	sel, err := parser.ParseSelection(src)
	if err != nil {
		t.Fatalf("%s: parse: %v", label, err)
	}
	checked, info, err := calculus.Check(sel, db.Catalog())
	if err != nil {
		t.Fatalf("%s: check: %v", label, err)
	}
	return RunSelection(t, label, db, checked, info)
}

// RunTable runs every table query against one workload database.
func RunTable(t *testing.T, workload string, db *relation.DB, queries []QueryTest) {
	t.Helper()
	for _, q := range queries {
		q := q
		t.Run(fmt.Sprintf("%s/%s", workload, q.Name), func(t *testing.T) {
			RunQuery(t, workload+"/"+q.Name, db, q.Src)
		})
	}
}
