package relation

import (
	"testing"
	"testing/quick"

	"pascalr/internal/schema"
	"pascalr/internal/stats"
	"pascalr/internal/value"
)

func intRel(t *testing.T) *Relation {
	t.Helper()
	return NewDB().MustCreate(schema.MustRelSchema("r", []schema.Column{
		{Name: "k", Type: schema.IntType("", 0, 1000)},
		{Name: "v", Type: schema.IntType("", 0, 1000)},
	}, []string{"k"}))
}

// eqRefs counts the references an equality probe for v finds.
func eqRefs(ix *ColIndex, v value.Value) int {
	n := 0
	ix.ProbeStats(&stats.Counters{}, value.OpEq, v, func(value.Value) { n++ })
	return n
}

func TestCreateIndexBackfillsAndMaintains(t *testing.T) {
	r := intRel(t)
	for i := int64(0); i < 10; i++ {
		if _, err := r.Insert([]value.Value{value.Int(i), value.Int(i % 3)}); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := r.CreateIndex("v")
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 10 {
		t.Errorf("backfill = %d entries", ix.Len())
	}
	if got := eqRefs(ix, value.Int(0)); got != 4 { // 0,3,6,9
		t.Errorf("ProbeEq(0) = %d", got)
	}
	// Maintenance under insert.
	r.Insert([]value.Value{value.Int(100), value.Int(0)})
	if got := eqRefs(ix, value.Int(0)); got != 5 {
		t.Errorf("after insert ProbeEq(0) = %d", got)
	}
	// Maintenance under delete.
	r.Delete([]value.Value{value.Int(0)})
	if got := eqRefs(ix, value.Int(0)); got != 4 {
		t.Errorf("after delete ProbeEq(0) = %d", got)
	}
	// Maintenance under assign.
	if err := r.Assign([][]value.Value{{value.Int(1), value.Int(7)}}); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 1 || eqRefs(ix, value.Int(7)) != 1 {
		t.Errorf("after assign Len=%d", ix.Len())
	}
	// Duplicate index and unknown component error.
	if _, err := r.CreateIndex("v"); err == nil {
		t.Errorf("duplicate index accepted")
	}
	if _, err := r.CreateIndex("ghost"); err == nil {
		t.Errorf("unknown component accepted")
	}
	if cols := r.Indexes(); len(cols) != 1 || cols[0] != "v" {
		t.Errorf("Indexes = %v", cols)
	}
	if got, ok := r.Index("v"); !ok || got.Col() != "v" {
		t.Errorf("Index lookup failed")
	}
}

func TestColIndexProbeOperators(t *testing.T) {
	r := intRel(t)
	for i, v := range []int64{1, 3, 3, 5} {
		r.Insert([]value.Value{value.Int(int64(i)), value.Int(v)})
	}
	ix, _ := r.CreateIndex("v")
	st := &stats.Counters{}
	count := func(op value.CmpOp, pv int64) int {
		n := 0
		ix.ProbeStats(st, op, value.Int(pv), func(value.Value) { n++ })
		return n
	}
	cases := []struct {
		op   value.CmpOp
		pv   int64
		want int
	}{
		{value.OpEq, 3, 2},
		{value.OpNe, 3, 2},
		{value.OpLt, 3, 1},  // 3 < iv: 5
		{value.OpLe, 3, 3},  // 3,3,5
		{value.OpGt, 3, 1},  // 1
		{value.OpGe, 3, 3},  // 1,3,3
		{value.OpLt, 0, 4},  // all
		{value.OpGt, 99, 4}, // all
	}
	for _, c := range cases {
		if got := count(c.op, c.pv); got != c.want {
			t.Errorf("ProbeStats(%v,%d) = %d, want %d", c.op, c.pv, got, c.want)
		}
	}
	if st.IndexProbes != int64(len(cases)) {
		t.Errorf("sink counted %d probes, want %d", st.IndexProbes, len(cases))
	}
	// Entries enumerates everything.
	n := 0
	ix.Entries(func(v, ref value.Value) { n++ })
	if n != 4 {
		t.Errorf("Entries = %d", n)
	}
}

// Property: after arbitrary insert/delete sequences, index probes agree
// with a naive scan for every operator.
func TestColIndexMatchesScan(t *testing.T) {
	f := func(ops []uint16, probe uint8) bool {
		r := intRel(t)
		ix, _ := r.CreateIndex("v")
		for i, op := range ops {
			k := int64(op % 50)
			if op%3 == 0 {
				r.Delete([]value.Value{value.Int(k)})
			} else {
				r.Insert([]value.Value{value.Int(k), value.Int(int64(i % 7))})
			}
		}
		pv := value.Int(int64(probe % 7))
		for _, op := range value.AllOps {
			want := 0
			r.Scan(nil, func(_ value.Value, tup []value.Value) bool {
				if ok, _ := op.Apply(pv, tup[1]); ok {
					want++
				}
				return true
			})
			got := 0
			ix.ProbeStats(&stats.Counters{}, op, pv, func(ref value.Value) {
				if _, err := r.Deref(ref); err != nil {
					t.Errorf("index returned stale ref")
				}
				got++
			})
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
