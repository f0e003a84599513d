package protocol

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	w := NewWriter()
	w.Uvarint(42)
	w.String("hello")
	if err := WriteFrame(bw, OpQuery, w.Bytes()); err != nil {
		t.Fatal(err)
	}
	op, payload, err := ReadFrame(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if op != OpQuery {
		t.Fatalf("op = %#x, want %#x", op, OpQuery)
	}
	r := NewReader(payload)
	if v, _ := r.Uvarint(); v != 42 {
		t.Fatalf("uvarint = %d", v)
	}
	if s, _ := r.String(); s != "hello" {
		t.Fatalf("string = %q", s)
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left over", r.Len())
	}
}

func TestValueRowsRoundTrip(t *testing.T) {
	rows := [][]any{
		{int64(7), "ada", true},
		{int64(-3), "", false},
	}
	w := NewWriter()
	w.Strings([]string{"n", "s", "b"})
	if err := w.Rows(rows); err != nil {
		t.Fatal(err)
	}
	r := NewReader(w.Bytes())
	cols, err := r.Strings()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cols, []string{"n", "s", "b"}) {
		t.Fatalf("cols = %v", cols)
	}
	got, err := r.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("rows = %v, want %v", got, rows)
	}
	if err := NewWriter().Rows([][]any{{3.14}}); err == nil {
		t.Fatal("float should not encode")
	}
	if err := NewWriter().Rows([][]any{{int64(1)}, {}}); err == nil {
		t.Fatal("a row without values should not encode")
	}
	// Rows of different shapes travel as consecutive blocks.
	mixed := [][]any{{int64(1)}, {"one"}, {"two"}, {int64(2), true}}
	w = NewWriter()
	if err := w.Rows(mixed); err != nil {
		t.Fatal(err)
	}
	if got, err := NewReader(w.Bytes()).Rows(); err != nil || !reflect.DeepEqual(got, mixed) {
		t.Fatalf("mixed rows = %v, %v; want %v", got, err, mixed)
	}
}

func TestOptsRoundTrip(t *testing.T) {
	cases := []QueryOpts{
		{},
		{HasStrategies: true, Strategies: 0x1f},
		{HasCostBased: true, CostBased: true},
		{HasCostBased: true, CostBased: false},
		{HasStrategies: true, Strategies: 3, HasCostBased: true, CostBased: true, MaxRefTuples: 1 << 20},
	}
	for i, o := range cases {
		w := NewWriter()
		w.Opts(o)
		got, err := NewReader(w.Bytes()).Opts()
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != o {
			t.Fatalf("case %d: %+v != %+v", i, got, o)
		}
	}
}

// TestOptsWireLayout pins the version-3 QueryOpts block byte for byte:
// a flags byte, the strategy bitset when flagged, the reference-tuple
// budget as a uvarint directly after it (no worker-count field), and
// the trace ID last when flagged.
func TestOptsWireLayout(t *testing.T) {
	cases := []struct {
		o    QueryOpts
		want []byte
	}{
		{QueryOpts{}, []byte{0x00, 0x00}},
		{QueryOpts{MaxRefTuples: 300}, []byte{0x00, 0xac, 0x02}},
		{QueryOpts{HasStrategies: true, Strategies: 0x1f, HasCostBased: true, CostBased: true, MaxRefTuples: 1},
			[]byte{optFlagStrategies | optFlagCostBased | optFlagCostValue, 0x1f, 0x01}},
		{QueryOpts{HasCostBased: true, TraceID: "ab"},
			[]byte{optFlagCostBased | optFlagTraceID, 0x00, 0x02, 'a', 'b'}},
	}
	for i, c := range cases {
		w := NewWriter()
		w.Opts(c.o)
		if !bytes.Equal(w.Bytes(), c.want) {
			t.Errorf("case %d: %+v encodes as % x, want % x", i, c.o, w.Bytes(), c.want)
		}
	}
}

func TestTruncatedPayloads(t *testing.T) {
	w := NewWriter()
	w.String("hello world")
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		if _, err := r.String(); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
	// A row count larger than the remaining payload must be rejected
	// without allocating.
	w2 := NewWriter()
	w2.Uvarint(1 << 40)
	if _, err := NewReader(w2.Bytes()).Rows(); err == nil {
		t.Fatal("absurd row count accepted")
	}
}

func TestBadFrames(t *testing.T) {
	// Zero-length frame (no opcode byte).
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 0})
	if _, _, err := ReadFrame(bufio.NewReader(&buf)); err == nil {
		t.Fatal("zero-length frame accepted")
	}
	// Oversized length prefix.
	buf.Reset()
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, _, err := ReadFrame(bufio.NewReader(&buf)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}
