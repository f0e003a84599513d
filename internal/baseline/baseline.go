// Package baseline evaluates checked selections by direct tuple
// substitution: nested loops over the range relations of the free
// variables, with quantifiers evaluated recursively by scanning their
// range relations for every binding of the outer variables.
//
// This is the strategy the paper contrasts itself against ("many systems
// evaluate queries directly as given by the user") and serves two roles
// here: it is the performance baseline of the experiments, and — because
// it implements the calculus semantics with no transformations at all —
// it is the correctness oracle for the phase-structured engine under
// every optimization level.
package baseline

import (
	"fmt"

	"pascalr/internal/calculus"
	"pascalr/internal/relation"
	"pascalr/internal/schema"
	"pascalr/internal/stats"
	"pascalr/internal/value"
)

// Binding associates a variable with the tuple it currently denotes.
type Binding struct {
	Tuple  []value.Value
	Schema *schema.RelSchema
}

// Env maps range-coupled variables to their current bindings.
type Env map[string]Binding

// Eval evaluates a checked selection (as returned by calculus.Check)
// against the database and returns the distinct result rows under
// info.Result, in the order their projections first occur. Scans of
// base relations are counted through the database's attached stats
// sink.
func Eval(sel *calculus.Selection, info *calculus.Info, db *relation.DB) ([][]value.Value, error) {
	return EvalStats(sel, info, db, db.Stats())
}

// EvalStats is Eval with an explicit counter sink, so concurrent
// baseline evaluations can count into private sinks instead of racing
// on the database's attached one.
func EvalStats(sel *calculus.Selection, info *calculus.Info, db *relation.DB, st *stats.Counters) ([][]value.Value, error) {
	var rows [][]value.Value
	seen := map[string]struct{}{}
	env := Env{}
	err := forEachRange(db, st, sel.Free, 0, env, func() error {
		ok, err := evalFormula(sel.Pred, env, db, st)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		tuple := make([]value.Value, len(sel.Proj))
		for i, p := range sel.Proj {
			v, err := operandValue(p, env)
			if err != nil {
				return err
			}
			tuple[i] = v
		}
		// Every component of the result is key: a set keeps the first
		// occurrence of each projection.
		k := value.EncodeKey(tuple)
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			rows = append(rows, tuple)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// forEachRange enumerates all combinations of bindings for the declared
// free variables, invoking body for each.
func forEachRange(db *relation.DB, st *stats.Counters, decls []calculus.Decl, i int, env Env, body func() error) error {
	if i == len(decls) {
		return body()
	}
	d := decls[i]
	return scanRange(db, st, d.Range, func(tuple []value.Value, sch *schema.RelSchema) error {
		env[d.Var] = Binding{Tuple: tuple, Schema: sch}
		defer delete(env, d.Var)
		return forEachRange(db, st, decls, i+1, env, body)
	})
}

// scanRange scans a (possibly extended) range expression, invoking fn
// with each qualifying element.
func scanRange(db *relation.DB, st *stats.Counters, r *calculus.RangeExpr, fn func([]value.Value, *schema.RelSchema) error) error {
	rel, ok := db.Relation(r.Rel)
	if !ok {
		return fmt.Errorf("baseline: unknown relation %s", r.Rel)
	}
	sch := rel.Schema()
	var scanErr error
	err := rel.Scan(st, func(_ value.Value, tuple []value.Value) bool {
		if r.Extended() {
			env := Env{r.FilterVar: {Tuple: tuple, Schema: sch}}
			ok, err := evalFormula(r.Filter, env, db, st)
			if err != nil {
				scanErr = err
				return false
			}
			if !ok {
				return true
			}
		}
		if err := fn(tuple, sch); err != nil {
			scanErr = err
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	return scanErr
}

// EvalFormula evaluates a formula under an environment binding its free
// variables, counting against the database's attached sink. Quantifiers
// scan their range relation; SOME over an empty range is false and ALL
// over an empty range is true, matching the calculus semantics that
// Lemma 1 is about.
func EvalFormula(f calculus.Formula, env Env, db *relation.DB) (bool, error) {
	return evalFormula(f, env, db, db.Stats())
}

// evalFormula is EvalFormula against an explicit sink.
func evalFormula(f calculus.Formula, env Env, db *relation.DB, st *stats.Counters) (bool, error) {
	switch g := f.(type) {
	case nil:
		return true, nil
	case *calculus.Lit:
		return g.Val, nil
	case *calculus.Cmp:
		l, err := operandValue(g.L, env)
		if err != nil {
			return false, err
		}
		r, err := operandValue(g.R, env)
		if err != nil {
			return false, err
		}
		return g.Op.Apply(l, r)
	case *calculus.Not:
		ok, err := evalFormula(g.F, env, db, st)
		return !ok, err
	case *calculus.And:
		for _, sub := range g.Fs {
			ok, err := evalFormula(sub, env, db, st)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	case *calculus.Or:
		for _, sub := range g.Fs {
			ok, err := evalFormula(sub, env, db, st)
			if err != nil || ok {
				return ok, err
			}
		}
		return false, nil
	case *calculus.Quant:
		result := g.All // ALL starts true, SOME starts false
		err := scanRange(db, st, g.Range, func(tuple []value.Value, sch *schema.RelSchema) error {
			env[g.Var] = Binding{Tuple: tuple, Schema: sch}
			defer delete(env, g.Var)
			ok, err := evalFormula(g.Body, env, db, st)
			if err != nil {
				return err
			}
			if g.All && !ok {
				result = false
				return errStop
			}
			if !g.All && ok {
				result = true
				return errStop
			}
			return nil
		})
		if err != nil && err != errStop {
			return false, err
		}
		return result, nil
	default:
		return false, fmt.Errorf("baseline: unknown formula node %T", f)
	}
}

// errStop terminates a quantifier's range scan early once its result is
// decided.
var errStop = fmt.Errorf("stop")

func operandValue(o calculus.Operand, env Env) (value.Value, error) {
	switch op := o.(type) {
	case calculus.Field:
		b, ok := env[op.Var]
		if !ok {
			return value.Value{}, fmt.Errorf("baseline: unbound variable %s", op.Var)
		}
		ci, ok := b.Schema.ColIndex(op.Col)
		if !ok {
			return value.Value{}, fmt.Errorf("baseline: relation %s has no component %s", b.Schema.Name, op.Col)
		}
		return b.Tuple[ci], nil
	case calculus.Const:
		return op.Val, nil
	default:
		return value.Value{}, fmt.Errorf("baseline: unresolved operand %s (selection not checked?)", o)
	}
}
