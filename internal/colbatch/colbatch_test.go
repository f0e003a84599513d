package colbatch

import (
	"errors"
	"testing"

	"pascalr/internal/value"
)

// lengths around word boundaries: empty, partial word, exact words,
// one past, and a long non-multiple-of-64.
var edgeLens = []int{0, 1, 63, 64, 65, 127, 128, 129, 1000}

func TestBitmapSetAllTailMasking(t *testing.T) {
	bm := &Bitmap{}
	for _, n := range edgeLens {
		bm.SetAll(n)
		if got := bm.Count(); got != n {
			t.Errorf("SetAll(%d).Count() = %d", n, got)
		}
		for _, w := range bm.Words() {
			_ = w
		}
		// Tail bits beyond n must be zero so Count/Empty need no masking.
		if n%64 != 0 && n > 0 {
			last := bm.Words()[len(bm.Words())-1]
			if last>>(uint(n%64)) != 0 {
				t.Errorf("SetAll(%d): tail bits set in last word %x", n, last)
			}
		}
		if n > 0 && (!bm.Has(0) || !bm.Has(n-1)) {
			t.Errorf("SetAll(%d): boundary bits not set", n)
		}
	}
}

func TestBitmapShrinkThenGrow(t *testing.T) {
	// Shrinking to a smaller length and growing back must not leak
	// stale set bits through the reused backing array.
	bm := &Bitmap{}
	bm.SetAll(130)
	bm.ClearAll(10)
	bm.SetAll(65)
	if got := bm.Count(); got != 65 {
		t.Errorf("count after shrink/grow = %d, want 65", got)
	}
	bm.ClearAll(200)
	if !bm.Empty() || bm.Count() != 0 {
		t.Errorf("ClearAll(200) left set bits")
	}
}

func TestBitmapSetClearHas(t *testing.T) {
	bm := NewBitmap(129)
	for _, i := range []int{0, 63, 64, 100, 128} {
		bm.Set(i)
		if !bm.Has(i) {
			t.Errorf("Has(%d) false after Set", i)
		}
	}
	if bm.Count() != 5 {
		t.Errorf("count = %d, want 5", bm.Count())
	}
	bm.Clear(64)
	if bm.Has(64) || bm.Count() != 4 {
		t.Errorf("Clear(64) failed: count=%d", bm.Count())
	}
}

func TestBitmapCombination(t *testing.T) {
	a, b := NewBitmap(70), NewBitmap(70)
	for i := 0; i < 70; i += 2 {
		a.Set(i)
	}
	for i := 0; i < 70; i += 3 {
		b.Set(i)
	}
	and := &Bitmap{}
	and.CopyFrom(a)
	and.And(b)
	for i := 0; i < 70; i++ {
		want := i%2 == 0 && i%3 == 0
		if and.Has(i) != want {
			t.Fatalf("And bit %d = %v, want %v", i, and.Has(i), want)
		}
	}
	or := &Bitmap{}
	or.CopyFrom(a)
	or.Or(b)
	for i := 0; i < 70; i++ {
		want := i%2 == 0 || i%3 == 0
		if or.Has(i) != want {
			t.Fatalf("Or bit %d = %v, want %v", i, or.Has(i), want)
		}
	}
	anot := &Bitmap{}
	anot.CopyFrom(a)
	anot.AndNot(b)
	for i := 0; i < 70; i++ {
		want := i%2 == 0 && i%3 != 0
		if anot.Has(i) != want {
			t.Fatalf("AndNot bit %d = %v, want %v", i, anot.Has(i), want)
		}
	}
}

func TestBitmapDoOrder(t *testing.T) {
	bm := NewBitmap(129)
	want := []int{0, 5, 63, 64, 65, 127, 128}
	for _, i := range want {
		bm.Set(i)
	}
	var got []int
	bm.Do(func(i int) bool { got = append(got, i); return true })
	if len(got) != len(want) {
		t.Fatalf("Do visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Do visited %v, want %v", got, want)
		}
	}
	// Early stop.
	var n int
	bm.Do(func(i int) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("Do early stop visited %d bits, want 3", n)
	}
}

func TestBitmapFilter(t *testing.T) {
	bm := &Bitmap{}
	bm.SetAll(100)
	if err := bm.Filter(func(i int) (bool, error) { return i%7 == 0, nil }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if bm.Has(i) != (i%7 == 0) {
			t.Fatalf("Filter bit %d wrong", i)
		}
	}
	boom := errors.New("boom")
	bm.SetAll(100)
	err := bm.Filter(func(i int) (bool, error) {
		if i == 10 {
			return false, boom
		}
		return true, nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("Filter error = %v, want boom", err)
	}
}

// appendRow appends one tuple at slot si column by column, the way the
// storage backend fills a batch.
func appendRow(b *Batch, si int, tuple []value.Value) {
	b.AppendSlot(si)
	for c, v := range tuple {
		if b.IsOrd(c) {
			b.GrowOrds(c, 1)[0] = v.Ord()
		} else {
			b.GrowStrs(c, 1)[0] = v.AsString()
		}
	}
}

func TestBatchAppendResetRow(t *testing.T) {
	b := New(2, 4)
	if b.Len() != 0 || b.Cap() != 4 || b.NumCols() != 2 {
		t.Fatalf("fresh batch: len=%d cap=%d cols=%d", b.Len(), b.Cap(), b.NumCols())
	}
	// Column 0 holds ordinals, column 1 strings.
	b.Configure(3, []value.Kind{value.KindInt, value.KindString}, []string{"", ""})
	if !b.IsOrd(0) || b.IsOrd(1) {
		t.Fatalf("IsOrd = %v,%v, want true,false", b.IsOrd(0), b.IsOrd(1))
	}
	tuple := []value.Value{value.Int(1), value.String_("a")}
	for i := 0; i < 4; i++ {
		tuple[0] = value.Int(int64(i))
		appendRow(b, 100+i, tuple)
	}
	if !b.Full() || b.Len() != 4 {
		t.Fatalf("batch not full after 4 appends")
	}
	if got := b.ColVal(0, 2); !value.Equal(got, value.Int(2)) {
		t.Errorf("col 0 row 2 = %s, want 2 (batch aliases caller tuple?)", got)
	}
	if got := b.Ords(0)[2]; got != 2 {
		t.Errorf("ords col 0 row 2 = %d, want 2", got)
	}
	if got := b.Ref(1); !value.Equal(got, value.Ref(3, 101, 0)) {
		t.Errorf("Ref(1) = %s, want @3:101", got)
	}
	if got := b.ColVal(0, 3).AsInt(); got != 3 {
		t.Errorf("ColVal(0, 3) = %d, want 3", got)
	}
	if got := b.ColVal(1, 3).AsString(); got != "a" {
		t.Errorf("ColVal(1, 3) = %q, want a", got)
	}
	if got := b.Strs(1)[3]; got != "a" {
		t.Errorf("strs col 1 row 3 = %q, want a", got)
	}
	b.Reset()
	if b.Len() != 0 || b.Full() {
		t.Errorf("Reset left rows behind")
	}
}

func TestBatchTypedReconstruction(t *testing.T) {
	// Values reconstructed from the ordinal vectors must be Equal to the
	// originals — enum values keep their type name, references their
	// full packing — or downstream dedup keys and fingerprints diverge.
	b := New(3, 2)
	b.Configure(7, []value.Kind{value.KindEnum, value.KindRef, value.KindBool}, []string{"daytype", "", ""})
	orig := []value.Value{value.Enum("daytype", 2), value.Ref(5, 42, 0), value.Bool(true)}
	appendRow(b, 9, orig)
	for c := range orig {
		if got := b.ColVal(c, 0); !value.Equal(got, orig[c]) {
			t.Errorf("col %d reconstructed as %s, want %s", c, got, orig[c])
		}
	}
}
