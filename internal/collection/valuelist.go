package collection

import (
	"fmt"

	"pascalr/internal/value"
)

// ValueList collects the distinct values of one component of the
// qualifying elements of a quantified variable's range — the structure
// strategy 4 builds instead of a complete index ("When vnrel is read,
// instead of a complete index only its value list is generated").
type ValueList struct {
	set      map[string]struct{}
	vals     []value.Value
	min, max value.Value
}

// NewValueList creates an empty value list.
func NewValueList() *ValueList {
	return &ValueList{set: make(map[string]struct{})}
}

// Add inserts a value, maintaining the distinct set and the min/max.
func (vl *ValueList) Add(v value.Value) {
	k := value.EncodeKey([]value.Value{v})
	if _, dup := vl.set[k]; dup {
		return
	}
	vl.set[k] = struct{}{}
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

// Has reports membership.
func (vl *ValueList) Has(v value.Value) bool {
	_, ok := vl.set[value.EncodeKey([]value.Value{v})]
	return ok
}

// Min and Max return the extreme values; they are invalid when empty.
func (vl *ValueList) Min() value.Value { return vl.min }

// Max returns the largest value.
func (vl *ValueList) Max() value.Value { return vl.max }

// QuantPred is a derived monadic predicate over one component value x,
// deciding "SOME v in list: x op v" or "ALL v in list: x op v" — the
// quantifier evaluation strategy 4 moves into the collection phase.
// Size reports how many values the predicate actually needs to store,
// reproducing the paper's storage refinements.
type QuantPred interface {
	Test(x value.Value) bool
	Size() int
	String() string
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
		return nil, fmt.Errorf("collection: quantifier predicate over empty value list (fold empty ranges first)")
	}
	switch op {
	case value.OpLt, value.OpLe:
		// x op SOME v  <=>  x op max;   x op ALL v  <=>  x op min.
		bound := vl.Max()
		if all {
			bound = vl.Min()
		}
		return &boundPred{op: op, bound: bound}, nil
	case value.OpGt, value.OpGe:
		bound := vl.Min()
		if all {
			bound = vl.Max()
		}
		return &boundPred{op: op, bound: bound}, nil
	case value.OpEq:
		if !all {
			return &setPred{vl: vl, member: true}, nil
		}
		if vl.Len() > 1 {
			return constPred(false), nil
		}
		return &boundPred{op: value.OpEq, bound: vl.Min()}, nil
	case value.OpNe:
		if all {
			return &setPred{vl: vl, member: false}, nil
		}
		if vl.Len() > 1 {
			return constPred(true), nil
		}
		return &boundPred{op: value.OpNe, bound: vl.Min()}, nil
	default:
		return nil, fmt.Errorf("collection: unknown operator %v", op)
	}
}

// boundPred stores a single value: the min/max refinement and the
// singleton =ALL / <>SOME cases.
type boundPred struct {
	op    value.CmpOp
	bound value.Value
}

func (p *boundPred) Test(x value.Value) bool {
	ok, err := p.op.Apply(x, p.bound)
	return err == nil && ok
}
func (p *boundPred) Size() int      { return 1 }
func (p *boundPred) String() string { return fmt.Sprintf("x %v %v", p.op, p.bound) }

// setPred stores the full distinct set: the =SOME (membership) and
// <>ALL (non-membership) cases.
type setPred struct {
	vl     *ValueList
	member bool
}

func (p *setPred) Test(x value.Value) bool { return p.vl.Has(x) == p.member }
func (p *setPred) Size() int               { return p.vl.Len() }
func (p *setPred) String() string {
	if p.member {
		return fmt.Sprintf("x IN list[%d]", p.vl.Len())
	}
	return fmt.Sprintf("x NOT IN list[%d]", p.vl.Len())
}

// constPred is a constant decision: =ALL over two or more values, or
// <>SOME over two or more values.
type constPred bool

func (p constPred) Test(value.Value) bool { return bool(p) }
func (p constPred) Size() int             { return 0 }
func (p constPred) String() string {
	if p {
		return "always TRUE"
	}
	return "always FALSE"
}
