package stats

import (
	"bytes"
	"errors"
	"testing"

	"pascalr/internal/protocol"
	"pascalr/internal/value"
)

// marshalFixture builds statistics with one column in each mode: an
// exact frequency table (grade), an equi-depth histogram (v, pushed past
// MaxExactValues) and a bounds-only summary (mixed, which holds values
// of two kinds).
func marshalFixture() *TableStats {
	ts := NewTableStats("emp", []string{"grade", "v", "mixed"})
	for i := 0; i < 4000; i++ {
		mixed := value.Int(int64(i))
		if i%2 == 0 {
			mixed = value.String_("s")
		}
		ts.ObserveInsert([]value.Value{value.Int(int64(i % 4)), value.Int(int64(i % 1000)), mixed})
	}
	return ts
}

// TestMarshalRoundTrip: unmarshalled statistics answer every estimate
// the original does, re-marshal to the same bytes, and keep observing
// mutations.
func TestMarshalRoundTrip(t *testing.T) {
	ts := marshalFixture()
	blob, err := ts.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != ts.Name || back.Rows() != ts.Rows() {
		t.Fatalf("restored %s with %d rows, want %s with %d", back.Name, back.Rows(), ts.Name, ts.Rows())
	}
	again, err := back.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatal("re-marshalled statistics differ from the original blob")
	}
	for _, name := range ts.Columns() {
		want, got := ts.Col(name), back.Col(name)
		if got.Mode() != want.Mode() || got.DistinctCount() != want.DistinctCount() {
			t.Errorf("%s: restored %s/%d distinct, want %s/%d",
				name, got.Mode(), got.DistinctCount(), want.Mode(), want.DistinctCount())
		}
		for _, probe := range []value.Value{value.Int(2), value.Int(500)} {
			wf, wok := want.CmpFraction(value.OpLt, probe)
			gf, gok := got.CmpFraction(value.OpLt, probe)
			if gf != wf || gok != wok {
				t.Errorf("%s < %v: restored %v/%v, want %v/%v", name, probe, gf, gok, wf, wok)
			}
		}
	}
	for name, mode := range map[string]string{"grade": ModeExact, "v": ModeEquiDepth, "mixed": ModeBounds} {
		if m := back.Col(name).Mode(); m != mode {
			t.Errorf("%s: mode %s, want %s (the fixture must cover every serialized mode)", name, m, mode)
		}
	}
	back.ObserveInsert([]value.Value{value.Int(0), value.Int(0), value.Int(0)})
	if back.Rows() != ts.Rows()+1 {
		t.Fatalf("restored statistics counted %d rows after an insert, want %d", back.Rows(), ts.Rows()+1)
	}
}

// TestMarshalMatchesStringKeyed: frequency tables keyed by value
// serialize to exactly the bytes the string-keyed tables did — over
// integers, strings, booleans, enumerations and references, after
// deletes, with every column in each mode, and for statistics a rebuild
// built.
func TestMarshalMatchesStringKeyed(t *testing.T) {
	ts := NewTableStats("emp", []string{"grade", "name", "flag", "status", "ref"})
	row := func(i int) []value.Value {
		return []value.Value{
			value.Int(int64(i%7 - 3)),
			value.String_(string(rune('a' + i%5))),
			value.Bool(i%3 == 0),
			value.Enum("status", i%4),
			value.Ref(2, i%9, 0),
		}
	}
	for i := 0; i < 300; i++ {
		ts.ObserveInsert(row(i))
	}
	for i := 0; i < 40; i += 3 {
		ts.ObserveDelete(row(i))
	}
	rebuilt := NewTableStats("emp", ts.Columns())
	rb := rebuilt.NewRebuild()
	for i := 0; i < 300; i++ {
		rb.Add(row(i))
	}
	rb.Commit()
	for name, st := range map[string]*TableStats{"maintained": ts, "rebuilt": rebuilt, "modes": marshalFixture()} {
		got, err := st.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		want, err := marshalStringKeyed(st)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: marshalled statistics differ from the string-keyed reference", name)
		}
	}
}

// TestUnmarshalVersionMismatch: a blob written under another
// serialization version is reported as ErrVersion, so a caller rebuilds
// the statistics instead of failing; a damaged blob of the current
// version is an ordinary error.
func TestUnmarshalVersionMismatch(t *testing.T) {
	blob, err := marshalFixture().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, ver := range []uint64{1, statsMarshalVersion + 1} {
		w := protocol.NewWriter()
		w.Uvarint(ver)
		other := append(w.Bytes(), blob[1:]...)
		if _, err := Unmarshal(other); !errors.Is(err, ErrVersion) {
			t.Errorf("version %d: got %v, want ErrVersion", ver, err)
		}
	}
	_, err = Unmarshal(blob[:len(blob)/2])
	if err == nil || errors.Is(err, ErrVersion) {
		t.Fatalf("truncated blob: got %v, want a non-version error", err)
	}
}
