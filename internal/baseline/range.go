package baseline

import (
	"fmt"

	"pascalr/internal/calculus"
	"pascalr/internal/relation"
	"pascalr/internal/value"
)

// RangeEmpty reports whether a range expression denotes the empty set:
// an empty base relation, or an extended range whose filter rejects
// every element. This is the runtime information the paper's compiler
// arranges to have available for adapting the standard form (Lemma 1).
// A fail-stopped database returns its sticky error, like every read:
// its in-memory cardinalities may count mutations recovery drops.
func RangeEmpty(db *relation.DB, r *calculus.RangeExpr) (bool, error) {
	rel, ok := db.Relation(r.Rel)
	if !ok {
		return false, fmt.Errorf("baseline: unknown relation %s", r.Rel)
	}
	if !r.Extended() {
		return rel.Len() == 0, db.Err()
	}
	empty := true
	var scanErr error
	sch := rel.Schema()
	err := rel.Scan(db.Stats(), func(_ value.Value, tuple []value.Value) bool {
		ok, err := EvalFormula(r.Filter, Env{r.FilterVar: {Tuple: tuple, Schema: sch}}, db)
		if err != nil {
			scanErr = err
			return false
		}
		if ok {
			empty = false
			return false
		}
		return true
	})
	if err != nil {
		return false, err
	}
	return empty, scanErr
}

// Emptiness returns a Fold-compatible callback over db. Errors inside
// the callback conservatively report the range as non-empty; the
// subsequent evaluation will surface the error.
func Emptiness(db *relation.DB) func(*calculus.RangeExpr) bool {
	return func(r *calculus.RangeExpr) bool {
		empty, err := RangeEmpty(db, r)
		return err == nil && empty
	}
}
