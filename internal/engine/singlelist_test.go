package engine_test

import (
	"context"
	"testing"

	"pascalr/internal/calculus"
	"pascalr/internal/engine"
	"pascalr/internal/enginetest"
	"pascalr/internal/parser"
	"pascalr/internal/workload"
)

// TestSingleListsAscend: a single list keeps no dedup table because the
// collection phase adds each element of its variable's one scan once.
// Every single list the university queries build, under every strategy
// combination and both planners, holds strictly ascending packed
// references — distinct, in slot order.
func TestSingleListsAscend(t *testing.T) {
	db := workload.MustUniversity(workload.DefaultConfig(12))
	eng := engine.New(db, nil)
	lists, refs := 0, 0
	for _, q := range enginetest.UniversityQueries {
		sel, err := parser.ParseSelection(q.Src)
		if err != nil {
			t.Fatalf("%s: parse: %v", q.Name, err)
		}
		checked, info, err := calculus.Check(sel, db.Catalog())
		if err != nil {
			t.Fatalf("%s: check: %v", q.Name, err)
		}
		for _, strat := range enginetest.StrategySets() {
			for _, cost := range []bool{false, true} {
				plan, err := eng.Compile(checked, info, engine.Options{Strategies: strat, CostBased: cost})
				if err != nil {
					t.Fatalf("%s %s: compile: %v", q.Name, strat, err)
				}
				sls, err := plan.SingleLists(context.Background(), nil)
				if err != nil {
					t.Fatalf("%s %s: %v", q.Name, strat, err)
				}
				for _, sl := range sls {
					lists++
					refs += len(sl)
					for i := 1; i < len(sl); i++ {
						if sl[i] <= sl[i-1] {
							t.Fatalf("%s %s cost=%v: single list word %d (%#x) follows %#x", q.Name, strat, cost, i, sl[i], sl[i-1])
						}
					}
				}
			}
		}
	}
	if lists == 0 || refs == 0 {
		t.Fatalf("the queries built %d single lists holding %d references", lists, refs)
	}
	t.Logf("%d single lists, %d references", lists, refs)
}
