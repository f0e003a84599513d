package collection

import (
	"fmt"

	"pascalr/internal/value"
)

// ValueList collects the distinct values of one component of the
// qualifying elements of a quantified variable's range — the structure
// strategy 4 builds instead of a complete index ("When vnrel is read,
// instead of a complete index only its value list is generated").
// Values are distinct under value.Equal, which is field equality, so
// the set keys on the values themselves.
type ValueList struct {
	set      map[value.Value]struct{}
	vals     []value.Value
	min, max value.Value
}

// NewValueList creates an empty value list.
func NewValueList() *ValueList {
	return &ValueList{set: make(map[value.Value]struct{})}
}

// Add inserts a value, maintaining the distinct set and the min/max.
func (vl *ValueList) Add(v value.Value) {
	if _, dup := vl.set[v]; dup {
		return
	}
	vl.set[v] = struct{}{}
	vl.vals = append(vl.vals, v)
	if !vl.min.IsValid() || value.MustCompare(v, vl.min) < 0 {
		vl.min = v
	}
	if !vl.max.IsValid() || value.MustCompare(v, vl.max) > 0 {
		vl.max = v
	}
}

// Len returns the number of distinct values.
func (vl *ValueList) Len() int { return len(vl.vals) }

// Values returns the distinct values in insertion order; callers must
// not modify them.
func (vl *ValueList) Values() []value.Value { return vl.vals }

// Has reports membership.
func (vl *ValueList) Has(v value.Value) bool {
	_, ok := vl.set[v]
	return ok
}

// Min and Max return the extreme values; they are invalid when empty.
func (vl *ValueList) Min() value.Value { return vl.min }

// Max returns the largest value.
func (vl *ValueList) Max() value.Value { return vl.max }

// QuantPred is a derived monadic predicate over one component value x,
// deciding "SOME v in list: x op v" or "ALL v in list: x op v" — the
// quantifier evaluation strategy 4 moves into the collection phase.
// MakeQuantPred reduces it to one of three forms, which the engine
// evaluates in bulk over a column:
//
//   - a bound (Set nil, Bound valid): x Op Bound;
//   - a set (Set non-nil): x in Set when Op is =, x not in Set when Op
//     is <>;
//   - a constant (Set nil, Bound invalid): Const, whatever x is.
type QuantPred struct {
	Op    value.CmpOp
	Bound value.Value
	Set   *ValueList
	Const bool
}

// MakeQuantPred builds the most compact predicate for the given
// operator and quantifier per section 4.4:
//
//   - < and <= need only the maximum (SOME) or minimum (ALL) value;
//     > and >= symmetrically the minimum (SOME) or maximum (ALL);
//   - = with ALL needs at most one value: with two or more distinct
//     values it is constantly false;
//   - <> with SOME needs at most one value: with two or more distinct
//     values it is constantly true;
//   - = with SOME and <> with ALL need the full distinct set.
//
// The list must be non-empty: quantifiers over empty ranges are folded
// away by the Lemma 1 adaptation before strategy 4 applies.
func MakeQuantPred(vl *ValueList, op value.CmpOp, all bool) (QuantPred, error) {
	if vl.Len() == 0 {
		return QuantPred{}, fmt.Errorf("collection: quantifier predicate over empty value list (fold empty ranges first)")
	}
	switch op {
	case value.OpLt, value.OpLe:
		// x op SOME v  <=>  x op max;   x op ALL v  <=>  x op min.
		bound := vl.Max()
		if all {
			bound = vl.Min()
		}
		return QuantPred{Op: op, Bound: bound}, nil
	case value.OpGt, value.OpGe:
		bound := vl.Min()
		if all {
			bound = vl.Max()
		}
		return QuantPred{Op: op, Bound: bound}, nil
	case value.OpEq, value.OpNe:
		// =SOME and <>ALL: (non-)membership. =ALL and <>SOME: one
		// value decides by comparison, two or more decide alone.
		if all == (op == value.OpNe) {
			return QuantPred{Op: op, Set: vl}, nil
		}
		if vl.Len() > 1 {
			return QuantPred{Const: op == value.OpNe}, nil
		}
		return QuantPred{Op: op, Bound: vl.Min()}, nil
	default:
		return QuantPred{}, fmt.Errorf("collection: unknown operator %v", op)
	}
}

// Test decides the predicate for one value — the scalar reference the
// engine's bulk forms count and decide like.
func (p QuantPred) Test(x value.Value) bool {
	switch {
	case p.Set != nil:
		return p.Set.Has(x) == (p.Op == value.OpEq)
	case p.Bound.IsValid():
		ok, err := p.Op.Apply(x, p.Bound)
		return err == nil && ok
	default:
		return p.Const
	}
}

// Size reports how many values the predicate stores — the paper's
// section 4.4 storage measure.
func (p QuantPred) Size() int {
	switch {
	case p.Set != nil:
		return p.Set.Len()
	case p.Bound.IsValid():
		return 1
	default:
		return 0
	}
}
