package value

import (
	"fmt"
	"math/bits"
	"strings"
)

// CmpOp is one of the six comparison operators of the PASCAL/R calculus:
// =, <>, <, <=, >, >=. Join terms (the atomic formulae of selection
// expressions) are built from exactly these operators.
type CmpOp uint8

// The comparison operators, in the paper's order.
const (
	OpEq CmpOp = iota // =
	OpNe              // <>
	OpLt              // <
	OpLe              // <=
	OpGt              // >
	OpGe              // >=
)

// AllOps lists every comparison operator; useful for exhaustive tests and
// for the random query generator.
var AllOps = []CmpOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}

// String returns the PASCAL/R spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", uint8(op))
	}
}

// Negate returns the operator whose result is the logical negation:
// NOT (a = b) is a <> b, NOT (a < b) is a >= b, and so on. Because every
// domain is totally ordered this is exact, so negation normal form never
// needs negated atoms.
func (op CmpOp) Negate() CmpOp {
	switch op {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	case OpGe:
		return OpLt
	default:
		panic(fmt.Sprintf("value: negate of invalid operator %d", uint8(op)))
	}
}

// Flip returns the operator for swapped operands: a < b iff b > a.
func (op CmpOp) Flip() CmpOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default: // = and <> are symmetric
		return op
	}
}

// Holds reports whether the operator is satisfied by a three-way
// comparison result c (negative, zero, positive as in Compare).
func (op CmpOp) Holds(c int) bool {
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	default:
		panic(fmt.Sprintf("value: Holds on invalid operator %d", uint8(op)))
	}
}

// Apply evaluates "a op b" for two values of the same kind. It reports an
// error exactly when Compare would.
func (op CmpOp) Apply(a, b Value) (bool, error) {
	c, err := Compare(a, b)
	if err != nil {
		return false, err
	}
	return op.Holds(c), nil
}

// HoldsOrd reports whether "a op b" holds for two Ord payloads of the
// same (compile-time-checked) int-backed kind.
func (op CmpOp) HoldsOrd(a, b int64) bool {
	return op.Holds(cmpInt64(a, b))
}

// FilterOrdBits evaluates "col[i] op r" in bulk over an unboxed
// ordinal column, for the rows whose bit is set in words (bit i selects
// col[i]; bits at positions >= len(col) must be zero), and clears the
// bits of rows where the comparison does not hold. The caller (the
// vectorized predicate compiler) has type-checked the column against
// the constant at compile time, so no per-row kind checks remain and
// the function cannot fail. Dense words run a sequential compare over
// all 64 values — branch-predictable, prefetch-friendly, and free of
// bit-extraction arithmetic — with the operator dispatched once per
// word; sparse words extract set bits one at a time.
func (op CmpOp) FilterOrdBits(col []int64, r int64, words []uint64) {
	for wi, w := range words {
		if w == 0 {
			continue
		}
		base := wi * 64
		if bits.OnesCount64(w) >= 16 && base+64 <= len(col) {
			span := col[base : base+64 : base+64]
			var res uint64
			switch op {
			case OpEq:
				for j, v := range span {
					if v == r {
						res |= uint64(1) << uint(j)
					}
				}
			case OpNe:
				for j, v := range span {
					if v != r {
						res |= uint64(1) << uint(j)
					}
				}
			case OpLt:
				for j, v := range span {
					if v < r {
						res |= uint64(1) << uint(j)
					}
				}
			case OpLe:
				for j, v := range span {
					if v <= r {
						res |= uint64(1) << uint(j)
					}
				}
			case OpGt:
				for j, v := range span {
					if v > r {
						res |= uint64(1) << uint(j)
					}
				}
			case OpGe:
				for j, v := range span {
					if v >= r {
						res |= uint64(1) << uint(j)
					}
				}
			}
			words[wi] = w & res
			continue
		}
		keep := w
		for m := w; m != 0; m &= m - 1 {
			if !op.Holds(cmpInt64(col[base+bits.TrailingZeros64(m)], r)) {
				keep &^= m & -m
			}
		}
		words[wi] = keep
	}
}

// FilterStrBits is FilterOrdBits over a string column, comparing
// lexicographically as Compare does. The column and r are strings by a
// compile-time check, so it cannot fail either. It visits only the
// selected rows: a string compare costs more than extracting a bit.
func (op CmpOp) FilterStrBits(col []string, r string, words []uint64) {
	for wi, w := range words {
		keep := w
		for m := w; m != 0; m &= m - 1 {
			if !op.Holds(strings.Compare(col[wi*64+bits.TrailingZeros64(m)], r)) {
				keep &^= m & -m
			}
		}
		words[wi] = keep
	}
}

// ParseOp converts the PASCAL/R spelling of a comparison operator.
func ParseOp(s string) (CmpOp, bool) {
	switch s {
	case "=":
		return OpEq, true
	case "<>":
		return OpNe, true
	case "<":
		return OpLt, true
	case "<=":
		return OpLe, true
	case ">":
		return OpGt, true
	case ">=":
		return OpGe, true
	default:
		return 0, false
	}
}
