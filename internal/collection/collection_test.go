package collection

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pascalr/internal/stats"
	"pascalr/internal/value"
)

// ref is the packed reference to slot s of relation 0.
func ref(s int) int64 { return value.Ref(0, s, 0).Ord() }

// TestSingleList: a single list keeps the references as added, in
// order. It has no dedup table: the engine adds each element once (see
// TestSingleListsAscend in internal/engine).
func TestSingleList(t *testing.T) {
	sl := NewSingleList("c")
	sl.Reserve(2)
	sl.Add(ref(1))
	sl.Add(ref(2))
	if sl.Len() != 2 {
		t.Errorf("Len = %d", sl.Len())
	}
	if got := sl.Refs(); !slices.Equal(got, []int64{ref(1), ref(2)}) {
		t.Errorf("Refs = %v", got)
	}
}

func TestIndexProbeEq(t *testing.T) {
	st := &stats.Counters{}
	ix := NewIndex("timetable", "tcnr")
	ix.Add(value.Int(10), ref(1))
	ix.Add(value.Int(10), ref(2))
	ix.Add(value.Int(20), ref(3))
	if ix.Len() != 3 {
		t.Errorf("Len = %d", ix.Len())
	}
	got := collectProbe(ix, st, value.OpEq, value.Int(10))
	if len(got) != 2 {
		t.Errorf("Probe(=, 10) = %v", got)
	}
	if len(collectProbe(ix, st, value.OpEq, value.Int(99))) != 0 {
		t.Errorf("Probe(=, 99) non-empty")
	}
	if st.IndexProbes != 2 {
		t.Errorf("probes = %d", st.IndexProbes)
	}
}

func collectProbe(ix *Index, st *stats.Counters, op value.CmpOp, pv value.Value) []int64 {
	var out []int64
	ix.Probe(st, op, pv, func(r int64) { out = append(out, r) })
	return out
}

func TestIndexProbeOperators(t *testing.T) {
	ix := NewIndex("r", "a")
	// values 1,3,3,5 with refs 1,2,3,4
	ix.Add(value.Int(1), ref(1))
	ix.Add(value.Int(3), ref(2))
	ix.Add(value.Int(3), ref(3))
	ix.Add(value.Int(5), ref(4))

	cases := []struct {
		op   value.CmpOp
		pv   int64
		want int
	}{
		{value.OpEq, 3, 2},  // iv = 3
		{value.OpNe, 3, 2},  // iv != 3: 1 and 5
		{value.OpLt, 3, 1},  // 3 < iv: 5
		{value.OpLe, 3, 3},  // 3 <= iv: 3,3,5
		{value.OpGt, 3, 1},  // 3 > iv: 1
		{value.OpGe, 3, 3},  // 3 >= iv: 1,3,3
		{value.OpLt, 0, 4},  // all
		{value.OpGt, 10, 4}, // all
		{value.OpLt, 9, 0},  // none
	}
	for _, c := range cases {
		got := collectProbe(ix, nil, c.op, value.Int(c.pv))
		if len(got) != c.want {
			t.Errorf("Probe(%v, %d) = %d refs, want %d", c.op, c.pv, len(got), c.want)
		}
	}
}

// Property: Probe(op, pv) returns exactly the entries where pv op iv.
func TestIndexProbeMatchesNaive(t *testing.T) {
	f := func(vals []int16, probe int16) bool {
		ix := NewIndex("r", "a")
		for i, v := range vals {
			ix.Add(value.Int(int64(v%10)), ref(i))
		}
		pv := value.Int(int64(probe % 10))
		for _, op := range value.AllOps {
			want := 0
			for _, v := range vals {
				ok, _ := op.Apply(pv, value.Int(int64(v%10)))
				if ok {
					want++
				}
			}
			if len(collectProbe(ix, nil, op, pv)) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestIndirectJoin(t *testing.T) {
	// Producers emit each pair at most once, so the structure stores
	// pairs as given; set semantics are restored by the combination
	// phase's reference relations.
	ij := NewIndirectJoin("c", "t")
	ij.Add(ref(1), ref(10))
	ij.Add(ref(2), ref(20))
	if ij.Len() != 2 {
		t.Errorf("Len = %d", ij.Len())
	}
	if got := ij.Pairs(); got[0][0] != ref(1) || got[1][1] != ref(20) {
		t.Errorf("Pairs = %v", got)
	}
}

func TestValueList(t *testing.T) {
	vl := NewValueList(value.KindInt, "")
	if vl.Len() != 0 || vl.Min().IsValid() {
		t.Errorf("empty list state wrong")
	}
	for _, n := range []int64{5, 1, 9, 5, 3} {
		vl.Add(value.Int(n))
	}
	if vl.Len() != 4 {
		t.Errorf("distinct count = %d", vl.Len())
	}
	if vl.Min().AsInt() != 1 || vl.Max().AsInt() != 9 {
		t.Errorf("min/max = %v/%v", vl.Min(), vl.Max())
	}
	if !vl.Has(value.Int(3)) || vl.Has(value.Int(2)) {
		t.Errorf("Has wrong")
	}
}

func mkVL(vals ...int64) *ValueList {
	vl := NewValueList(value.KindInt, "")
	for _, v := range vals {
		vl.Add(value.Int(v))
	}
	return vl
}

func TestMakeQuantPredRefinements(t *testing.T) {
	vl := mkVL(3, 7, 5)

	// < SOME keeps only the maximum.
	p, err := MakeQuantPred(vl, value.OpLt, false)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 1 {
		t.Errorf("<SOME size = %d, want 1", p.Size())
	}
	if !p.Test(value.Int(6)) || p.Test(value.Int(7)) {
		t.Errorf("<SOME test wrong")
	}
	// < ALL keeps only the minimum.
	p, _ = MakeQuantPred(vl, value.OpLt, true)
	if p.Size() != 1 || !p.Test(value.Int(2)) || p.Test(value.Int(3)) {
		t.Errorf("<ALL wrong")
	}
	// > SOME: x greater than the minimum.
	p, _ = MakeQuantPred(vl, value.OpGt, false)
	if !p.Test(value.Int(4)) || p.Test(value.Int(3)) {
		t.Errorf(">SOME wrong")
	}
	// >= ALL: x at least the maximum.
	p, _ = MakeQuantPred(vl, value.OpGe, true)
	if !p.Test(value.Int(7)) || p.Test(value.Int(6)) {
		t.Errorf(">=ALL wrong")
	}
	// = ALL over several values is constantly false, storing nothing.
	p, _ = MakeQuantPred(vl, value.OpEq, true)
	if p.Size() != 0 || p.Test(value.Int(5)) {
		t.Errorf("=ALL multi wrong: size=%d", p.Size())
	}
	// = ALL over a singleton is an equality test.
	p, _ = MakeQuantPred(mkVL(4), value.OpEq, true)
	if p.Size() != 1 || !p.Test(value.Int(4)) || p.Test(value.Int(5)) {
		t.Errorf("=ALL singleton wrong")
	}
	// <> SOME over several values is constantly true.
	p, _ = MakeQuantPred(vl, value.OpNe, false)
	if p.Size() != 0 || !p.Test(value.Int(5)) {
		t.Errorf("<>SOME multi wrong")
	}
	// <> SOME over a singleton tests inequality.
	p, _ = MakeQuantPred(mkVL(4), value.OpNe, false)
	if !p.Test(value.Int(5)) || p.Test(value.Int(4)) {
		t.Errorf("<>SOME singleton wrong")
	}
	// = SOME needs the full set.
	p, _ = MakeQuantPred(vl, value.OpEq, false)
	if p.Size() != 3 || !p.Test(value.Int(5)) || p.Test(value.Int(4)) {
		t.Errorf("=SOME wrong")
	}
	// <> ALL is non-membership.
	p, _ = MakeQuantPred(vl, value.OpNe, true)
	if !p.Test(value.Int(4)) || p.Test(value.Int(5)) {
		t.Errorf("<>ALL wrong")
	}
	// Empty list errors.
	if _, err := MakeQuantPred(NewValueList(value.KindInt, ""), value.OpEq, false); err == nil {
		t.Errorf("empty value list accepted")
	}
}

// Property: every QuantPred decision equals the naive quantifier
// evaluation over the list.
func TestQuantPredMatchesNaive(t *testing.T) {
	f := func(vals []uint8, probe uint8) bool {
		if len(vals) == 0 {
			return true
		}
		vl := NewValueList(value.KindInt, "")
		for _, v := range vals {
			vl.Add(value.Int(int64(v % 16)))
		}
		x := value.Int(int64(probe % 16))
		for _, op := range value.AllOps {
			for _, all := range []bool{false, true} {
				p, err := MakeQuantPred(vl, op, all)
				if err != nil {
					return false
				}
				want := all
				for _, v := range vals {
					ok, _ := op.Apply(x, value.Int(int64(v%16)))
					if all && !ok {
						want = false
					}
					if !all && ok {
						want = true
					}
				}
				if p.Test(x) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestIndexEqualityUnderOneHash puts every indexed value on one hash
// chain: an =-probe must still yield exactly the equal values'
// references, in insertion order, a miss nothing, and a <>-probe the
// unequal ones in insertion order, each probe counted once.
func TestIndexEqualityUnderOneHash(t *testing.T) {
	valHash = func(value.Value) uint64 { return 0 }
	t.Cleanup(func() { valHash = defaultValHash })
	ix := NewIndex("r", "a")
	// Int(3), Enum("color", 3) and Ref(0, 3, 0) share the payload 3, so
	// only the kind tells them apart.
	vals := []value.Value{
		value.Int(3), value.String_("x"), value.Int(1), value.Int(3),
		value.Enum("color", 3), value.Int(3), value.String_("x"), value.Ref(0, 3, 0),
	}
	for i, v := range vals {
		ix.Add(v, ref(i))
	}
	st := &stats.Counters{}
	cases := []struct {
		op   value.CmpOp
		pv   value.Value
		want []int64
	}{
		{value.OpEq, value.Int(3), []int64{ref(0), ref(3), ref(5)}},
		{value.OpEq, value.String_("x"), []int64{ref(1), ref(6)}},
		{value.OpEq, value.Enum("color", 3), []int64{ref(4)}},
		{value.OpEq, value.Int(2), nil},
		{value.OpEq, value.String_("y"), nil},
		{value.OpNe, value.Int(3), []int64{ref(1), ref(2), ref(4), ref(6), ref(7)}},
	}
	for i, c := range cases {
		if got := collectProbe(ix, st, c.op, c.pv); !slices.Equal(got, c.want) {
			t.Errorf("Probe(%v, %v) = %v, want %v", c.op, c.pv, got, c.want)
		}
		if st.IndexProbes != int64(i+1) {
			t.Errorf("after %d probes the sink counted %d", i+1, st.IndexProbes)
		}
	}
}

// TestIndexProbeOrder: with real hashes, =-probes yield a value's
// references in insertion order whichever probe builds the chains, and
// <>-probes scan in insertion order even after an ordered probe built
// the sorted copy.
func TestIndexProbeOrder(t *testing.T) {
	ix := NewIndex("r", "a")
	for i := 0; i < 200; i++ {
		ix.Add(value.Int(int64(i*7%5)), ref(i))
	}
	collectProbe(ix, nil, value.OpLt, value.Int(2)) // builds the sorted copy first
	for v := int64(0); v < 6; v++ {
		var eq, ne []int64
		for i := 0; i < 200; i++ {
			if int64(i*7%5) == v {
				eq = append(eq, ref(i))
			} else {
				ne = append(ne, ref(i))
			}
		}
		if got := collectProbe(ix, nil, value.OpEq, value.Int(v)); !slices.Equal(got, eq) {
			t.Errorf("Probe(=, %d) = %v, want %v", v, got, eq)
		}
		if got := collectProbe(ix, nil, value.OpNe, value.Int(v)); !slices.Equal(got, ne) {
			t.Errorf("Probe(<>, %d) = %v, want %v", v, got, ne)
		}
	}
}

// TestValueListMatchesModel checks typed value lists — integer,
// boolean, two enumeration types and string — fed seeded values with
// duplicates against a model keyed on each value's rendering: the
// distinct count, membership (values of another kind or enumeration
// type are never members), the extremes, and every quantifier
// predicate MakeQuantPred builds. It runs again with every entry on one
// hash, so each membership answer rests on the stored entry, not the
// hash tag.
func TestValueListMatchesModel(t *testing.T) {
	t.Run("hashed", testValueListMatchesModel)
	t.Run("one-hash", func(t *testing.T) {
		ordHash = func(int64) uint64 { return 0 }
		strHash = func(string) uint64 { return 0 }
		t.Cleanup(func() { ordHash, strHash = defaultOrdHash, defaultStrHash })
		testValueListMatchesModel(t)
	})
}

func testValueListMatchesModel(t *testing.T) {
	gens := []struct {
		kind     value.Kind
		enumType string
		gen      func(r *rand.Rand) value.Value
	}{
		{value.KindInt, "", func(r *rand.Rand) value.Value { return value.Int(r.Int63n(40) - 20) }},
		{value.KindBool, "", func(r *rand.Rand) value.Value { return value.Bool(r.Intn(2) == 1) }},
		{value.KindEnum, "color", func(r *rand.Rand) value.Value { return value.Enum("color", r.Intn(5)) }},
		{value.KindEnum, "size", func(r *rand.Rand) value.Value { return value.Enum("size", r.Intn(3)) }},
		{value.KindString, "", func(r *rand.Rand) value.Value { return value.String_(string(rune('a' + r.Intn(12)))) }},
	}
	// Probes include every generator's values, so each list also sees
	// values of the other kinds and the other enumeration type.
	probes := func(r *rand.Rand) []value.Value {
		var out []value.Value
		for _, g := range gens {
			for k := 0; k < 6; k++ {
				out = append(out, g.gen(r))
			}
		}
		return out
	}
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		for _, g := range gens {
			vl := NewValueList(g.kind, g.enumType)
			model := map[string]value.Value{}
			var lo, hi value.Value
			for n := r.Intn(30) + 1; n > 0; n-- {
				v := g.gen(r)
				vl.Add(v)
				model[v.String()] = v
				if !lo.IsValid() || value.MustCompare(v, lo) < 0 {
					lo = v
				}
				if !hi.IsValid() || value.MustCompare(v, hi) > 0 {
					hi = v
				}
			}
			name := fmt.Sprintf("seed %d %s %s list", seed, g.enumType, g.kind)
			if vl.Len() != len(model) {
				t.Fatalf("%s: Len = %d, want %d", name, vl.Len(), len(model))
			}
			if !value.Equal(vl.Min(), lo) || !value.Equal(vl.Max(), hi) {
				t.Fatalf("%s: Min, Max = %v, %v, want %v, %v", name, vl.Min(), vl.Max(), lo, hi)
			}
			for _, x := range probes(r) {
				_, want := model[x.String()]
				if vl.Has(x) != want {
					t.Fatalf("%s: Has(%v) = %v, want %v", name, x, !want, want)
				}
				if x.Kind() != g.kind || g.kind == value.KindEnum && x.EnumType() != g.enumType {
					continue
				}
				for _, op := range value.AllOps {
					for _, all := range []bool{false, true} {
						p, err := MakeQuantPred(vl, op, all)
						if err != nil {
							t.Fatal(err)
						}
						want := all
						for _, v := range model {
							if ok := value.MustCompare(x, v); holds(op, ok) != all {
								want = !all
								break
							}
						}
						if p.Test(x) != want {
							t.Fatalf("%s: %v %v %s = %v, want %v", name, x, op, map[bool]string{false: "SOME", true: "ALL"}[all], !want, want)
						}
					}
				}
			}
		}
	}
}

// holds applies op to a comparison result.
func holds(op value.CmpOp, c int) bool {
	ok, err := op.Apply(value.Int(int64(c)), value.Int(0))
	return err == nil && ok
}

// TestValueListFeedAllocs guards the allocation count of feeding four
// 1 024-row batches, each reserved before its loop, into an integer
// value list. The map[value.Value] list this type replaced allocated
// 63, 28 and 6 objects for these three feeds (go1.24, amd64).
func TestValueListFeedAllocs(t *testing.T) {
	for _, c := range []struct {
		distinct  int64
		mapAllocs float64
	}{{4096, 63}, {700, 28}, {5, 6}} {
		allocs := testing.AllocsPerRun(20, func() {
			vl := NewValueList(value.KindInt, "")
			for b := int64(0); b < 4; b++ {
				vl.Reserve(1024)
				for i := b * 1024; i < (b+1)*1024; i++ {
					vl.AddOrd(i * 7919 % c.distinct)
				}
			}
		})
		if allocs > c.mapAllocs {
			t.Errorf("%d distinct values: %v allocations, the map list made %v", c.distinct, allocs, c.mapAllocs)
		}
		t.Logf("%d distinct values: %v allocations", c.distinct, allocs)
	}
}
