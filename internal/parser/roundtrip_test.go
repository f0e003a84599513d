package parser

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"pascalr/internal/baseline"
	"pascalr/internal/calculus"
	"pascalr/internal/value"
	"pascalr/internal/workload"
)

// TestRandomSelectionRoundTrip is the parser's differential property:
// printing a random selection and re-parsing it must preserve semantics
// exactly (evaluated by the oracle on a random database).
func TestRandomSelectionRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := workload.RandomDB(rng, 5)
		sel := workload.RandomSelection(rng)

		reparsed, err := ParseSelection(sel.String())
		if err != nil {
			t.Fatalf("seed %d: cannot re-parse printout: %v\n%s", seed, err, sel)
		}
		// Printing the re-parse reproduces the same text (idempotence).
		if reparsed.String() != sel.String() {
			t.Fatalf("seed %d: print not idempotent:\n%s\n%s", seed, sel, reparsed)
		}

		c1, i1, err := calculus.Check(sel, db.Catalog())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		c2, i2, err := calculus.Check(reparsed, db.Catalog())
		if err != nil {
			t.Fatalf("seed %d: re-parsed selection fails check: %v", seed, err)
		}
		r1, err := baseline.Eval(c1, i1, db)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r2, err := baseline.Eval(c2, i2, db)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if key(r1) != key(r2) {
			t.Fatalf("seed %d: round trip changed semantics\n%s", seed, sel)
		}
	}
}

func key(rows [][]value.Value) string {
	var keys []string
	for _, tup := range rows {
		keys = append(keys, value.EncodeKey(tup))
	}
	sort.Strings(keys)
	return strings.Join(keys, "|")
}
