package enginetest

import (
	"context"
	"sync"
	"testing"

	"pascalr/internal/calculus"
	"pascalr/internal/engine"
	"pascalr/internal/parser"
	"pascalr/internal/relation"
	"pascalr/internal/stats"
)

// RunConcurrent is the concurrent-differential mode: one query runs
// under every strategy set × {static, cost-based} planner with
// `goroutines` goroutines sharing one engine and one compiled plan over
// one database. Every goroutine's result must equal the serial run's,
// and the engine's merged counters must equal exactly `goroutines`
// copies of the serial run's counters — executions may interleave
// arbitrarily but must neither lose nor duplicate work. Run it under
// -race: it drives every shared structure (plan revalidation, counter
// merging, index probe sorting, the database content lock) from many
// goroutines at once.
func RunConcurrent(t *testing.T, label string, db *relation.DB, src string, goroutines int) {
	t.Helper()
	ctx := context.Background()
	sel, err := parser.ParseSelection(src)
	if err != nil {
		t.Fatalf("%s: parse: %v", label, err)
	}
	checked, info, err := calculus.Check(sel, db.Catalog())
	if err != nil {
		t.Fatalf("%s: check: %v", label, err)
	}
	est := db.Estimator()
	for _, strat := range StrategySets() {
		for _, costBased := range []bool{false, true} {
			opts := engine.Options{Strategies: strat, CostBased: costBased}
			if costBased {
				opts.Estimator = est
			}

			// Reference run, instrumented.
			stRef := &stats.Counters{}
			want, err := engine.New(db, stRef).Eval(ctx, checked, info, opts)
			if err != nil {
				t.Fatalf("%s [%s cost=%v]: reference: %v", label, strat, costBased, err)
			}
			wantKey := RelKey(want)

			// Concurrent runs: one engine, one compiled plan, N
			// goroutines.
			stShared := &stats.Counters{}
			eng := engine.New(db, stShared)
			plan, err := eng.Compile(checked, info, opts)
			if err != nil {
				t.Fatalf("%s [%s cost=%v]: compile: %v", label, strat, costBased, err)
			}
			keys := make([]string, goroutines)
			errs := make([]error, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					res, err := plan.Eval(ctx)
					if err != nil {
						errs[g] = err
						return
					}
					keys[g] = RelKey(res)
				}(g)
			}
			wg.Wait()
			for g := 0; g < goroutines; g++ {
				if errs[g] != nil {
					t.Fatalf("%s [%s cost=%v]: goroutine %d: %v", label, strat, costBased, g, errs[g])
				}
				if keys[g] != wantKey {
					t.Fatalf("%s [%s cost=%v]: goroutine %d result mismatch", label, strat, costBased, g)
				}
			}
			wantFP := stRef.Scale(goroutines).Fingerprint()
			if gotFP := stShared.Fingerprint(); gotFP != wantFP {
				t.Fatalf("%s [%s cost=%v]: merged counters of %d concurrent runs != %d× serial\nwant %s\ngot  %s",
					label, strat, costBased, goroutines, goroutines, wantFP, gotFP)
			}
		}
	}
}
