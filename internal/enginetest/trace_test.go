package enginetest

import (
	"context"
	"testing"

	"pascalr/internal/calculus"
	"pascalr/internal/engine"
	"pascalr/internal/obs"
	"pascalr/internal/parser"
	"pascalr/internal/stats"
)

// TestTracedFingerprintIdentity proves that span tracing is invisible
// to execution: for every table query under the full 32-combo strategy
// matrix × all planner modes, a run
// with a live trace on the context produces the exact result AND the
// exact counter fingerprint of the untraced run. Tracing records into
// its own sink and never touches stats.Counters, so any divergence
// here is an instrumentation bug leaking into execution.
func TestTracedFingerprintIdentity(t *testing.T) {
	db := universityDB(t, 10)
	ctx := context.Background()
	modes := PlannerModes(db)
	for _, q := range UniversityQueries {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			sel, err := parser.ParseSelection(q.Src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			checked, info, err := calculus.Check(sel, db.Catalog())
			if err != nil {
				t.Fatalf("check: %v", err)
			}
			for _, strat := range StrategySets() {
				for _, mode := range modes {
					opts := engine.Options{Strategies: strat, CostBased: mode.Est != nil, Estimator: mode.Est}

					plain := &stats.Counters{}
					got, err := engine.New(db, plain).Eval(ctx, checked, info, opts)
					if err != nil {
						t.Fatalf("[%s %s] untraced: %v", strat, mode.Name, err)
					}

					tr := obs.NewTrace("")
					traced := &stats.Counters{}
					gotTr, err := engine.New(db, traced).Eval(obs.With(ctx, tr.Root()), checked, info, opts)
					tr.Finish()
					if err != nil {
						t.Fatalf("[%s %s] traced: %v", strat, mode.Name, err)
					}

					if a, b := RelKey(got), RelKey(gotTr); a != b {
						t.Fatalf("[%s %s] traced result diverges\nuntraced: %d rows\ntraced:   %d rows",
							strat, mode.Name, len(got), len(gotTr))
					}
					if a, b := plain.Fingerprint(), traced.Fingerprint(); a != b {
						t.Fatalf("[%s %s] traced counters diverge\nuntraced: %s\ntraced:   %s",
							strat, mode.Name, a, b)
					}
				}
			}
		})
	}
}
