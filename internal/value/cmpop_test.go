package value

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestOpStringsAndParse(t *testing.T) {
	for _, op := range AllOps {
		s := op.String()
		back, ok := ParseOp(s)
		if !ok || back != op {
			t.Errorf("ParseOp(%q) = %v,%v, want %v", s, back, ok, op)
		}
	}
	if _, ok := ParseOp("=="); ok {
		t.Errorf("ParseOp accepted ==")
	}
}

func TestNegateIsExactComplement(t *testing.T) {
	f := func(a, b int64) bool {
		for _, op := range AllOps {
			r1, _ := op.Apply(Int(a), Int(b))
			r2, _ := op.Negate().Apply(Int(a), Int(b))
			if r1 == r2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNegateInvolution(t *testing.T) {
	for _, op := range AllOps {
		if op.Negate().Negate() != op {
			t.Errorf("%v: negate not an involution", op)
		}
	}
}

func TestFlipSwapsOperands(t *testing.T) {
	f := func(a, b int64) bool {
		for _, op := range AllOps {
			r1, _ := op.Apply(Int(a), Int(b))
			r2, _ := op.Flip().Apply(Int(b), Int(a))
			if r1 != r2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHoldsTruthTable(t *testing.T) {
	cases := []struct {
		op   CmpOp
		neg  bool // holds for c = -1
		zero bool // holds for c = 0
		pos  bool // holds for c = +1
	}{
		{OpEq, false, true, false},
		{OpNe, true, false, true},
		{OpLt, true, false, false},
		{OpLe, true, true, false},
		{OpGt, false, false, true},
		{OpGe, false, true, true},
	}
	for _, c := range cases {
		if c.op.Holds(-1) != c.neg || c.op.Holds(0) != c.zero || c.op.Holds(1) != c.pos {
			t.Errorf("%v truth table wrong", c.op)
		}
	}
}

func TestApplyError(t *testing.T) {
	if _, err := OpEq.Apply(Int(1), String_("x")); err == nil {
		t.Errorf("Apply across kinds did not error")
	}
}

func TestApplyOnStrings(t *testing.T) {
	ok, err := OpLe.Apply(String_("abc"), String_("abd"))
	if err != nil || !ok {
		t.Errorf("'abc' <= 'abd' = %v, %v", ok, err)
	}
	ok, err = OpGt.Apply(String_("b"), String_("ab"))
	if err != nil || !ok {
		t.Errorf("'b' > 'ab' = %v, %v", ok, err)
	}
}

// TestFilterStrBitsMatchesCompare cross-checks the string kernel
// against a row-at-a-time strings.Compare for every operator, over
// lengths straddling word boundaries, under a dense selection (every
// row but each third) and a sparse one (each fifth row).
func TestFilterStrBitsMatchesCompare(t *testing.T) {
	selections := map[string]func(i int) bool{
		"dense":  func(i int) bool { return i%3 != 1 },
		"sparse": func(i int) bool { return i%5 == 2 },
	}
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		col := make([]string, n)
		for i := range col {
			col[i] = strings.Repeat(string(rune('a'+i%5)), 1+i%3)
		}
		for _, r := range []string{"", "c", "cc", "z"} {
			for name, selected := range selections {
				for _, op := range AllOps {
					words := make([]uint64, (n+63)/64)
					for i := 0; i < n; i++ {
						if selected(i) {
							words[i/64] |= 1 << uint(i%64)
						}
					}
					op.FilterStrBits(col, r, words)
					for i := 0; i < n; i++ {
						want := selected(i) && op.Holds(strings.Compare(col[i], r))
						if got := words[i/64]&(1<<uint(i%64)) != 0; got != want {
							t.Fatalf("%s n=%d %q %v %q row %d: got %v want %v", name, n, col[i], op, r, i, got, want)
						}
					}
				}
			}
		}
	}
}
