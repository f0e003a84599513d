package protocol

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// sampleBlock has one column of every kind.
func sampleBlock() *Block {
	return &Block{Rows: 4, Cols: []Column{
		{Kind: ColInt, Ints: []int64{0, -1, math.MinInt64, math.MaxInt64}},
		{Kind: ColString, Strs: []string{"", "ada", "Größe", "日本語の文字列"}},
		{Kind: ColBool, Bools: []bool{true, false, false, true}},
		{Kind: ColEnum, Labels: []string{"monday", "tuesday", "", "fréttir"}, Codes: []uint32{3, 0, 2, 0}},
	}}
}

// roundTrip encodes b as a RowBatch payload and decodes it into a
// block that already holds other vectors, so reuse is exercised too.
func roundTrip(t *testing.T, done bool, b *Block) (*Block, []byte) {
	t.Helper()
	w := NewWriter()
	w.RowBatch(done, b)
	got := sampleBlock()
	gotDone, err := NewReader(w.Bytes()).RowBatch(got)
	if err != nil {
		t.Fatal(err)
	}
	if gotDone != done {
		t.Fatalf("done = %v, want %v", gotDone, done)
	}
	return got, w.Bytes()
}

// sameBlock compares blocks by row count, kinds and cell values.
func sameBlock(t *testing.T, got, want *Block) {
	t.Helper()
	if got.Rows != want.Rows || len(got.Cols) != len(want.Cols) {
		t.Fatalf("shape %dx%d, want %dx%d", got.Rows, len(got.Cols), want.Rows, len(want.Cols))
	}
	for j := range want.Cols {
		if got.Cols[j].Kind != want.Cols[j].Kind {
			t.Fatalf("column %d kind %d, want %d", j, got.Cols[j].Kind, want.Cols[j].Kind)
		}
		if want.Cols[j].Kind == ColEnum && !reflect.DeepEqual(got.Cols[j].Labels, want.Cols[j].Labels) {
			t.Fatalf("column %d labels %q, want %q", j, got.Cols[j].Labels, want.Cols[j].Labels)
		}
		for i := 0; i < want.Rows; i++ {
			if g, w := got.Value(i, j), want.Value(i, j); g != w {
				t.Fatalf("cell (%d,%d) = %#v, want %#v", i, j, g, w)
			}
		}
	}
}

func TestBlockRoundTripEveryKind(t *testing.T) {
	b := sampleBlock()
	got, _ := roundTrip(t, true, b)
	sameBlock(t, got, b)
	if got.Value(1, 3) != "monday" || got.Value(2, 3) != "" {
		t.Fatalf("enum cells decode to %q, %q", got.Value(1, 3), got.Value(2, 3))
	}
}

func TestBlockRoundTripZeroRows(t *testing.T) {
	b := sampleBlock()
	b.Reset()
	if b.Rows != 0 || len(b.Cols) != 4 || len(b.Cols[3].Labels) != 4 {
		t.Fatalf("Reset lost the columns: %+v", b)
	}
	got, _ := roundTrip(t, false, b)
	sameBlock(t, got, b)
	if !reflect.DeepEqual(got.Cols[3].Labels, b.Cols[3].Labels) {
		t.Fatalf("label table of an empty enum column: %q", got.Cols[3].Labels)
	}
	// A block without columns cannot hold rows.
	w := NewWriter()
	w.RowBatch(true, &Block{Rows: 2})
	if _, err := NewReader(w.Bytes()).RowBatch(&Block{}); err == nil {
		t.Fatal("rows without columns accepted")
	}
}

// TestBlockStringsShareOneRun checks the decoded strings are views of
// one run: the layout puts every length before the bytes.
func TestBlockStringsShareOneRun(t *testing.T) {
	b := &Block{Rows: 3, Cols: []Column{{Kind: ColString, Strs: []string{"ab", "", "cde"}}}}
	w := NewWriter()
	w.Block(b)
	want := []byte{3, 1, ColString, 2, 0, 3, 'a', 'b', 'c', 'd', 'e'}
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("encoding %v, want %v", w.Bytes(), want)
	}
}

func TestRowsAdapterMatchesBlock(t *testing.T) {
	rows := [][]any{
		{int64(math.MinInt64), "", true},
		{int64(math.MaxInt64), "Größe", false},
	}
	w := NewWriter()
	if err := w.Rows(rows); err != nil {
		t.Fatal(err)
	}
	got, err := NewReader(w.Bytes()).Rows()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("rows = %v, want %v", got, rows)
	}
	got[0] = append(got[0], "grown") // capped: must not clobber row 1
	if got[1][0] != int64(math.MaxInt64) {
		t.Fatal("appending to one decoded row changed the next")
	}
	// Zero rows decode to an empty, non-nil slice.
	w = NewWriter()
	if err := w.Rows(nil); err != nil {
		t.Fatal(err)
	}
	if got, err := NewReader(w.Bytes()).Rows(); err != nil || got == nil || len(got) != 0 {
		t.Fatalf("zero rows decode to %#v, %v", got, err)
	}
}

func TestRowBatchRejectsNonCanonical(t *testing.T) {
	_, good := roundTrip(t, true, sampleBlock())
	cases := map[string][]byte{
		"done byte 2":       append([]byte{2}, good[1:]...),
		"trailing byte":     append(append([]byte{}, good...), 0),
		"overlong rows":     append([]byte{1, 0x84, 0x00}, good[2:]...),
		"unknown kind":      {0, 1, 1, 9, 0},
		"boolean byte 2":    {0, 1, 1, ColBool, 2},
		"label code range":  {0, 1, 1, ColEnum, 1, 1, 'a', 1},
		"string past frame": {0, 1, 1, ColString, 5, 'a'},
	}
	for name, data := range cases {
		if _, err := NewReader(data).RowBatch(&Block{}); err == nil {
			t.Errorf("%s: accepted %v", name, data)
		}
	}
}

// FuzzDecodeRowBatch feeds arbitrary bytes to the RowBatch decoder: it
// must refuse malformed input without panicking or reading past the
// payload, and every payload it accepts must re-encode to the same
// bytes.
func FuzzDecodeRowBatch(f *testing.F) {
	w := NewWriter()
	w.RowBatch(true, sampleBlock())
	full := w.Bytes()
	f.Add(full)
	f.Add(full[:len(full)-3])
	empty := sampleBlock()
	empty.Reset()
	w = NewWriter()
	w.RowBatch(false, empty)
	f.Add(w.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var b Block
		done, err := NewReader(data).RowBatch(&b)
		if err != nil {
			return
		}
		for i := 0; i < b.Rows; i++ {
			for j := range b.Cols {
				_ = b.Value(i, j)
			}
		}
		w := NewWriter()
		w.RowBatch(done, &b)
		if !bytes.Equal(w.Bytes(), data) {
			t.Fatalf("re-encoding differs:\n in  %v\n out %v", data, w.Bytes())
		}
	})
}
