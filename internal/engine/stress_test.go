package engine

import (
	"context"
	"math/rand"
	"testing"

	"pascalr/internal/baseline"
	"pascalr/internal/calculus"
	"pascalr/internal/workload"
)

func TestStressDifferential(t *testing.T) {
	subsets := []Strategy{0, S1, S2, S3, S4, S1 | S2, S1 | S3, S1 | S4, S2 | S3, S3 | S4,
		S1 | S2 | S3, S1 | S2 | S4, S1 | S3 | S4, S2 | S3 | S4, AllStrategies,
		SCNF, S3 | SCNF, S1 | S2 | S3 | SCNF, AllStrategies | SCNF}
	seeds := int64(2000)
	if testing.Short() {
		seeds = 200
	}
	for seed := int64(1000); seed < 1000+seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := workload.RandomDB(rng, 6)
		sel := workload.RandomSelection(rng)
		checked, info, err := calculus.Check(sel, db.Catalog())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, err := baseline.Eval(checked, info, db)
		if err != nil {
			t.Fatalf("seed %d: baseline: %v", seed, err)
		}
		wantKey := resultKey(want)
		for _, strat := range subsets {
			eng := New(db, nil)
			got, err := eng.Eval(context.Background(), checked, info, Options{Strategies: strat})
			if err != nil {
				t.Fatalf("seed %d %s: engine: %v\nquery: %s", seed, strat, err, checked)
			}
			if gotKey := resultKey(got); gotKey != wantKey {
				t.Fatalf("seed %d %s: result mismatch\nquery: %s\nwant %d rows, got %d rows",
					seed, strat, checked, len(want), len(got))
			}
		}
	}
}
