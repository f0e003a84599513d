package storage

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"pascalr/internal/colbatch"
	"pascalr/internal/schema"
	"pascalr/internal/value"
)

func ikey(i int) string { return value.EncodeKey([]value.Value{value.Int(int64(i))}) }

func ituple(i int) []value.Value {
	return []value.Value{value.Int(int64(i)), value.String_(fmt.Sprintf("v%d", i))}
}

// snapshot captures the slot span and every live slot's tuple, for
// equivalence comparisons; the store holds rows shaped like tuple(0).
func snapshot(t *testing.T, b *Disk, tuple func(int) []value.Value) string {
	t.Helper()
	kinds, enums, err := columnsOf(tuple(0))
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("span=%d\n", b.SlotSpan()) + dumpRows(t, b, 0, b.SlotSpan(), kinds, enums)
}

// TestMemoryDiskEquivalence drives an identical randomized mutation
// sequence through a store with no directory (NewMemory) and a store
// with a tiny memtable (constant spilling): every scan, every lookup,
// and every slot number must match — the engine's bit-identity across
// in-memory and durable databases rests on this.
func TestMemoryDiskEquivalence(t *testing.T) {
	mem := NewMemory()
	disk := NewDisk(t.TempDir(), 0, Options{MemtableEntries: 4, Fsync: SyncNever}, nil)
	defer disk.Close()
	rng := rand.New(rand.NewSource(7))
	present := map[int]bool{}

	for step := 0; step < 800; step++ {
		k := rng.Intn(60)
		switch {
		case rng.Intn(10) == 0 && len(present) > 0: // whole-relation reset
			if err := mem.Reset(); err != nil {
				t.Fatal(err)
			}
			if err := disk.Reset(); err != nil {
				t.Fatal(err)
			}
			present = map[int]bool{}
		case rng.Intn(3) == 0 && present[k]: // delete
			ms, mok := mem.LookupKey(ikey(k))
			ds, dok := disk.LookupKey(ikey(k))
			if !mok || !dok || ms != ds {
				t.Fatalf("step %d: lookup(%d) diverged: mem %d,%v disk %d,%v", step, k, ms, mok, ds, dok)
			}
			if err := mem.Delete(ms, ikey(k)); err != nil {
				t.Fatal(err)
			}
			if err := disk.Delete(ds, ikey(k)); err != nil {
				t.Fatal(err)
			}
			delete(present, k)
		case !present[k]: // insert
			ms, err := mem.Append(ikey(k), ituple(k))
			if err != nil {
				t.Fatal(err)
			}
			ds, err := disk.Append(ikey(k), ituple(k))
			if err != nil {
				t.Fatal(err)
			}
			if ms != ds {
				t.Fatalf("step %d: append(%d) slots diverged: mem %d disk %d", step, k, ms, ds)
			}
			present[k] = true
		}
		if step%50 == 0 {
			if m, d := snapshot(t, mem, ituple), snapshot(t, disk, ituple); m != d {
				t.Fatalf("step %d: scans diverged:\nmem:\n%s\ndisk:\n%s", step, m, d)
			}
		}
	}
	if m, d := snapshot(t, mem, ituple), snapshot(t, disk, ituple); m != d {
		t.Fatalf("final scans diverged:\nmem:\n%s\ndisk:\n%s", m, d)
	}
	for k := 0; k < 60; k++ {
		ms, mok := mem.LookupKey(ikey(k))
		ds, dok := disk.LookupKey(ikey(k))
		if mok != dok || (mok && ms != ds) {
			t.Errorf("final lookup(%d) diverged: mem %d,%v disk %d,%v", k, ms, mok, ds, dok)
		}
		mt, mok2, _ := mem.Get(ms)
		dt, dok2, _ := disk.Get(ds)
		if mok {
			if !mok2 || !dok2 || value.EncodeKey(mt) != value.EncodeKey(dt) {
				t.Errorf("final get(%d) diverged", k)
			}
		}
	}
}

// TestDiskLookupAfterIrregularFlush regression-tests the bloom sizing
// bug: checkpoints flush partially filled memtables, so tables exist at
// every size, and a probe must find keys in all of them.
func TestDiskLookupAfterIrregularFlush(t *testing.T) {
	d := NewDisk(t.TempDir(), 0, Options{MemtableEntries: 8, Fsync: SyncNever}, nil)
	defer d.Close()
	for i := 1; i <= 99; i++ {
		if _, err := d.Append(ikey(i), ituple(i)); err != nil {
			t.Fatal(err)
		}
		if i%13 == 0 { // irregular mid-fill flush, like a checkpoint
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 1; i <= 99; i++ {
		si, ok := d.LookupKey(ikey(i))
		if !ok {
			t.Fatalf("key %d not found across %d tables", i, d.TableCount())
		}
		tup, ok, err := d.Get(si)
		if err != nil || !ok || tup[0].AsInt() != int64(i) {
			t.Fatalf("key %d: get(%d) = %v %v %v", i, si, tup, ok, err)
		}
	}
	if _, ok := d.LookupKey(ikey(1000)); ok {
		t.Fatal("absent key found")
	}
}

// TestDiskBloomNegativeProbes verifies the negative-probe fast path:
// probing keys that exist in no table must be answered by the bloom
// filters without I/O for nearly all of them.
func TestDiskBloomNegativeProbes(t *testing.T) {
	d := NewDisk(t.TempDir(), 0, Options{MemtableEntries: 64, Fsync: SyncNever}, nil)
	defer d.Close()
	for i := 0; i < 1024; i++ {
		if _, err := d.Append(ikey(i), ituple(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := d.TableCount(); n < 16 {
		t.Fatalf("expected many tables, got %d", n)
	}
	const misses = 2048
	for i := 0; i < misses; i++ {
		if _, ok := d.LookupKey(ikey(100000 + i)); ok {
			t.Fatalf("phantom key %d", 100000+i)
		}
	}
	// Each missing probe consults every table; the filters must have
	// skipped nearly all of those consultations (1% false positives).
	skipped := d.BloomNegatives()
	total := uint64(misses * d.TableCount())
	if skipped < total*95/100 {
		t.Fatalf("bloom skipped only %d of %d table consultations", skipped, total)
	}
}

// TestDiskCompaction checks that compaction preserves the observable
// state while dropping dead records, and that superseded files survive
// until DropObsolete.
func TestDiskCompaction(t *testing.T) {
	dir := t.TempDir()
	d := NewDisk(dir, 3, Options{MemtableEntries: 8, Fsync: SyncNever}, nil)
	defer d.Close()
	for i := 0; i < 64; i++ {
		if _, err := d.Append(ikey(i), ituple(i)); err != nil {
			t.Fatal(err)
		}
	}
	// 64 appends through an 8-entry memtable leave 8 same-tier tables —
	// a mergeable tiered run regardless of tombstones.
	if !d.NeedsCompaction() {
		t.Fatal("8 same-tier tables not flagged for compaction")
	}
	for i := 0; i < 64; i += 2 {
		si, ok := d.LookupKey(ikey(i))
		if !ok {
			t.Fatalf("key %d missing", i)
		}
		if err := d.Delete(si, ikey(i)); err != nil {
			t.Fatal(err)
		}
	}
	si, _ := d.LookupKey(ikey(1))
	if err := d.Delete(si, ikey(1)); err != nil { // now more than half dead
		t.Fatal(err)
	}
	before := snapshot(t, d, ituple)
	nBefore := d.TableCount()
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := snapshot(t, d, ituple); got != before {
		t.Fatalf("compaction changed state:\nbefore:\n%s\nafter:\n%s", before, got)
	}
	if d.TableCount() != 1 {
		t.Fatalf("TableCount = %d after compaction", d.TableCount())
	}
	if len(d.Obsolete()) != nBefore {
		t.Fatalf("obsolete = %d, want %d", len(d.Obsolete()), nBefore)
	}
	// Superseded files still on disk (a checkpoint manifest may still
	// reference them) until DropObsolete.
	for _, name := range d.Obsolete() {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("superseded file %s gone before DropObsolete: %v", name, err)
		}
	}
	obs := append([]string(nil), d.Obsolete()...)
	d.DropObsolete(nil)
	for _, name := range obs {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("superseded file %s survived DropObsolete", name)
		}
	}
	if got := snapshot(t, d, ituple); got != before {
		t.Fatal("state changed after DropObsolete")
	}
}

// TestDiskMetaRoundTrip closes a disk backend and reopens it from its
// checkpoint metadata: the observable state must be identical.
func TestDiskMetaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := Options{MemtableEntries: 8, Fsync: SyncNever}
	d := NewDisk(dir, 0, opts, nil)
	for i := 0; i < 50; i++ {
		if _, err := d.Append(ikey(i), ituple(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{3, 17, 41} {
		si, _ := d.LookupKey(ikey(i))
		if err := d.Delete(si, ikey(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil { // Meta requires an empty memtable
		t.Fatal(err)
	}
	want := snapshot(t, d, ituple)
	meta := d.Meta()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenDisk(dir, 0, opts, nil, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if got := snapshot(t, rd, ituple); got != want {
		t.Fatalf("reopened state diverged:\nwant:\n%s\ngot:\n%s", want, got)
	}
	for i := 0; i < 50; i++ {
		_, ok := rd.LookupKey(ikey(i))
		want := i != 3 && i != 17 && i != 41
		if ok != want {
			t.Errorf("reopened lookup(%d) = %v, want %v", i, ok, want)
		}
	}
}

// TestWALRecovery appends records, garbles the tail, and recovers: the
// valid prefix must come back intact and the garbage must be chopped.
func TestWALRecovery(t *testing.T) {
	dir := t.TempDir()
	w, payloads, err := RecoverWAL(dir, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 0 {
		t.Fatalf("fresh WAL returned %d payloads", len(payloads))
	}
	for i := 0; i < 20; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("record-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, WALName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a torn final write.
	torn := append(append([]byte(nil), data...), 0xde, 0xad, 0xbe)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, payloads, err := RecoverWAL(dir, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 20 {
		t.Fatalf("recovered %d payloads, want 20", len(payloads))
	}
	for i, p := range payloads {
		if string(p) != fmt.Sprintf("record-%02d", i) {
			t.Fatalf("payload %d = %q", i, p)
		}
	}
	if w2.Size() != int64(len(data)) {
		t.Fatalf("recovered size %d, want %d", w2.Size(), len(data))
	}
	// The next append extends the clean prefix.
	if _, err := w2.Append([]byte("post-recovery")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	_, payloads, err = RecoverWAL(dir, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 21 || string(payloads[20]) != "post-recovery" {
		t.Fatalf("post-recovery append lost: %d payloads", len(payloads))
	}
}

func testSchema(t testing.TB) *schema.RelSchema {
	t.Helper()
	return schema.MustRelSchema("parts", []schema.Column{
		{Name: "pno", Type: schema.IntType("pnotype", 1, 999)},
		{Name: "pname", Type: schema.StringType("nametype", 12)},
	}, []string{"pno"})
}

// TestRecordRoundTrip encodes and decodes one record of every op.
func TestRecordRoundTrip(t *testing.T) {
	enum, err := schema.EnumType("color", "red", "green", "blue")
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Seq: 1, Op: OpDefineType, Type: enum},
		{Seq: 2, Op: OpCreateRel, Schema: testSchema(t)},
		{Seq: 3, Op: OpCreateIndex, Rel: 4, Col: "pname"},
		{Seq: 4, Op: OpInsert, Rel: 4, Tuple: []value.Value{value.Int(7), value.String_("bolt")}},
		{Seq: 5, Op: OpDelete, Rel: 4, Key: []value.Value{value.Int(7)}},
		{Seq: 6, Op: OpAssign, Rel: 4, Tuples: [][]value.Value{
			{value.Int(1), value.String_("nut")},
			{value.Int(2), value.String_("cam")},
		}},
	}
	for _, rec := range recs {
		payload, err := EncodeRecord(rec)
		if err != nil {
			t.Fatalf("op %d: encode: %v", rec.Op, err)
		}
		got, err := DecodeRecord(payload)
		if err != nil {
			t.Fatalf("op %d: decode: %v", rec.Op, err)
		}
		if got.Seq != rec.Seq || got.Op != rec.Op || got.Rel != rec.Rel || got.Col != rec.Col {
			t.Fatalf("op %d: header diverged: %+v", rec.Op, got)
		}
		switch rec.Op {
		case OpDefineType:
			if got.Type == nil || got.Type.Name != "color" {
				t.Fatalf("type round-trip: %+v", got.Type)
			}
		case OpCreateRel:
			if got.Schema == nil || got.Schema.Name != "parts" || len(got.Schema.Cols) != 2 {
				t.Fatalf("schema round-trip: %+v", got.Schema)
			}
		case OpInsert:
			if value.EncodeKey(got.Tuple) != value.EncodeKey(rec.Tuple) {
				t.Fatal("tuple round-trip diverged")
			}
		case OpDelete:
			if value.EncodeKey(got.Key) != value.EncodeKey(rec.Key) {
				t.Fatal("key round-trip diverged")
			}
		case OpAssign:
			if len(got.Tuples) != 2 || value.EncodeKey(got.Tuples[1]) != value.EncodeKey(rec.Tuples[1]) {
				t.Fatal("tuples round-trip diverged")
			}
		}
	}
	if _, err := EncodeRecord(Record{Op: Op(99)}); err == nil {
		t.Fatal("unknown op encoded")
	}
	if _, err := DecodeRecord([]byte{0x01}); err == nil {
		t.Fatal("truncated record decoded")
	}
}

// TestManifestRoundTripAndOrphans writes a manifest, reads it back, and
// checks CleanOrphans removes exactly the unreferenced table files.
func TestManifestRoundTripAndOrphans(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := ReadManifest(dir); err != nil || ok {
		t.Fatalf("empty dir: manifest ok=%v err=%v", ok, err)
	}
	enum, err := schema.EnumType("color", "red", "green", "blue")
	if err != nil {
		t.Fatal(err)
	}
	m := &Manifest{
		LastSeq: 42,
		Types:   []*schema.Type{enum},
		Rels: []RelManifest{{
			Schema: testSchema(t),
			Disk: DiskTableMeta{
				SlotSpan: 10, ResetFloor: 2, NextGen: 3,
				Tables: []string{"r0-g0.sst", "r0-g2.sst"},
				Dead:   []int{4, 7}, Live: 5,
			},
			Indexes: []string{"pname"},
			Stats:   []byte{1, 2, 3},
		}},
	}
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ReadManifest(dir)
	if err != nil || !ok {
		t.Fatalf("read back: ok=%v err=%v", ok, err)
	}
	if got.LastSeq != 42 || len(got.Types) != 1 || len(got.Rels) != 1 {
		t.Fatalf("manifest header diverged: %+v", got)
	}
	rm := got.Rels[0]
	if rm.Schema.Name != "parts" || !reflect.DeepEqual(rm.Disk, m.Rels[0].Disk) ||
		!reflect.DeepEqual(rm.Indexes, []string{"pname"}) || string(rm.Stats) != string([]byte{1, 2, 3}) {
		t.Fatalf("relation manifest diverged: %+v", rm)
	}

	// Orphan cleanup: referenced tables stay, others go, non-table files
	// are never touched.
	for _, name := range []string{"r0-g0.sst", "r0-g1.sst", "r0-g2.sst", "r9-g0.sst", WALName} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := CleanOrphans(dir, got); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	want := []string{ManifestName, "r0-g0.sst", "r0-g2.sst", WALName}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("after CleanOrphans: %v, want %v", names, want)
	}
}

// TestBloomNoFalseNegatives cycles filters of many sizes through the
// serialize/reconstitute path an SSTable open performs: every added key
// must still be reported present.
func TestBloomNoFalseNegatives(t *testing.T) {
	for _, n := range []int{1, 2, 5, 6, 7, 8, 13, 31, 64, 100, 257, 1000} {
		b := newBloom(n)
		for i := 0; i < n; i++ {
			b.add(ikey(i))
		}
		rb := bloomFromParts(b.bits, b.k)
		if rb.nbits != b.nbits {
			t.Fatalf("n=%d: reconstituted nbits %d != built %d", n, rb.nbits, b.nbits)
		}
		for i := 0; i < n; i++ {
			if !b.mayContain(ikey(i)) {
				t.Fatalf("n=%d: false negative on key %d", n, i)
			}
			if !rb.mayContain(ikey(i)) {
				t.Fatalf("n=%d: false negative on key %d after reconstitution", n, i)
			}
		}
		fp := 0
		for i := n; i < n+1000; i++ {
			if rb.mayContain(ikey(i)) {
				fp++
			}
		}
		if fp > 100 {
			t.Fatalf("n=%d: %d/1000 false positives", n, fp)
		}
	}
}

// TestWALAppendRejectsOversized pins the frame-size guard: a payload
// readFrame would refuse must never reach the log, because recovery
// truncates at the first refused frame — silently discarding it AND
// every durable record behind it.
func TestWALAppendRejectsOversized(t *testing.T) {
	dir := t.TempDir()
	w, payloads, err := RecoverWAL(dir, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 0 {
		t.Fatalf("fresh WAL replayed %d records", len(payloads))
	}
	if _, err := w.Append(make([]byte, maxRecordSize+1)); err == nil {
		t.Fatal("oversized append accepted")
	}
	if w.Size() != 0 {
		t.Fatalf("failed append grew the log to %d bytes", w.Size())
	}
	if _, err := w.Append([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, payloads, err = RecoverWAL(dir, SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 1 || string(payloads[0]) != "ok" {
		t.Fatalf("recovered %d records, want the one valid append", len(payloads))
	}
}

// TestSplitRecordChunks pins the OpAssign chunking: oversized tuple
// lists split into a flagged group that partitions the list in order,
// every chunk roundtrips through the codec, and everything else passes
// through untouched.
func TestSplitRecordChunks(t *testing.T) {
	var tuples [][]value.Value
	for i := 0; i < 20; i++ {
		tuples = append(tuples, ituple(i))
	}
	rec := Record{Op: OpAssign, Rel: 3, Tuples: tuples}

	if got := splitRecord(rec, 1<<20); len(got) != 1 || got[0].More || got[0].Cont {
		t.Fatalf("small assignment split into %d flagged records", len(got))
	}
	ins := Record{Op: OpInsert, Rel: 1, Tuple: ituple(1)}
	if got := splitRecord(ins, 1); len(got) != 1 || !reflect.DeepEqual(got[0], ins) {
		t.Fatal("non-assign record did not pass through")
	}

	chunks := splitRecord(rec, 24)
	if len(chunks) < 3 {
		t.Fatalf("split produced only %d chunks", len(chunks))
	}
	var merged [][]value.Value
	for i, c := range chunks {
		if c.Op != OpAssign || c.Rel != rec.Rel || len(c.Tuples) == 0 {
			t.Fatalf("chunk %d malformed: %+v", i, c)
		}
		if wantCont := i > 0; c.Cont != wantCont {
			t.Fatalf("chunk %d Cont=%v", i, c.Cont)
		}
		if wantMore := i < len(chunks)-1; c.More != wantMore {
			t.Fatalf("chunk %d More=%v", i, c.More)
		}
		payload, err := EncodeRecord(c)
		if err != nil {
			t.Fatalf("chunk %d encode: %v", i, err)
		}
		back, err := DecodeRecord(payload)
		if err != nil {
			t.Fatalf("chunk %d decode: %v", i, err)
		}
		if back.More != c.More || back.Cont != c.Cont || len(back.Tuples) != len(c.Tuples) {
			t.Fatalf("chunk %d did not roundtrip: %+v vs %+v", i, back, c)
		}
		merged = append(merged, c.Tuples...)
	}
	if len(merged) != len(tuples) {
		t.Fatalf("chunks carry %d tuples, want %d", len(merged), len(tuples))
	}
	for i := range tuples {
		if value.EncodeKey(merged[i]) != value.EncodeKey(tuples[i]) {
			t.Fatalf("tuple %d reordered by split", i)
		}
	}
}

// TestDiskAppendFlushFailureRollsBack: a memtable flush failing inside
// Append must leave the store exactly as before the append — the
// caller published nothing (no live count, no index entries), so a
// half-registered entry would answer key probes while being invisible
// to scans. Every column of the memtable's run must be back in step
// with its rows, so that batch fills of the rows that stay agree with
// Get.
func TestDiskAppendFlushFailureRollsBack(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "missing")
	d := NewDisk(dir, 0, Options{MemtableEntries: 3, Fsync: SyncNever}, nil)
	defer d.Close()
	for i := 1; i <= 2; i++ {
		if _, err := d.Append(ikey(i), mixedTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := snapshot(t, d, mixedTuple)
	if _, err := d.Append(ikey(3), mixedTuple(3)); err == nil {
		t.Fatal("append with failing flush reported success")
	}
	if span := d.SlotSpan(); span != 2 {
		t.Fatalf("slot span %d after rolled-back append", span)
	}
	if _, ok := d.LookupKey(ikey(3)); ok {
		t.Fatal("rolled-back entry still answers key lookups")
	}
	if got := snapshot(t, d, mixedTuple); got != before {
		t.Fatalf("rolled-back entry visible to scans:\n%s", got)
	}
	for c := range d.mem.kinds {
		if got := len(d.mem.ords[c]) + len(d.mem.strs[c]); got != d.mem.len() {
			t.Fatalf("memtable column %d holds %d values for %d rows", c, got, d.mem.len())
		}
	}
	kinds, enums, err := columnsOf(mixedTuple(0))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dumpRows(t, d, 0, d.SlotSpan(), kinds, enums), dumpGets(t, d); got != want {
		t.Fatalf("batch fill after the rolled-back append diverged from Get:\nbatches:\n%s\nGet:\n%s", got, want)
	}
	// With the failure cause repaired, the same append must succeed and
	// reuse the never-published slot.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	si, err := d.Append(ikey(3), mixedTuple(3))
	if err != nil {
		t.Fatal(err)
	}
	if si != 2 {
		t.Fatalf("retried append landed on slot %d, want 2", si)
	}
	if got, ok := d.LookupKey(ikey(3)); !ok || got != 2 {
		t.Fatalf("retried append not found: slot %d ok %v", got, ok)
	}
}

// TestScanBatchesRefusesStringAsOrdinals: a batch that wants a string
// column as ordinals, or an int-backed one as strings, is refused with
// an error, whether the rows sit in the memtable or in SSTable blocks.
func TestScanBatchesRefusesStringAsOrdinals(t *testing.T) {
	mem := NewMemory()
	disk := NewDisk(t.TempDir(), 0, Options{MemtableEntries: 2, Fsync: SyncNever}, nil)
	defer disk.Close()
	for i := 0; i < 3; i++ { // the disk store spills two rows, keeps one
		for _, s := range []*Disk{mem, disk} {
			if _, err := s.Append(ikey(i), ituple(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		col  int
		want string
	}{{1, "as ordinals"}, {0, "as strings"}} {
		b := colbatch.New(2, 8)
		b.Configure(0, []value.Kind{value.KindString, value.KindInt}, nil)
		for name, s := range map[string]*Disk{"memtable": mem, "blocks": disk} {
			b.Reset()
			err := s.ScanBatchesInto(0, s.SlotSpan(), []int{tc.col}, b, func() error { b.Reset(); return nil })
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: column %d filled %s: %v", name, tc.col, tc.want, err)
			}
		}
	}
}

// TestMemoryStoreWritesNoFiles: a store with no directory keeps every
// slot in its memtable. Three default memtable budgets of appends (and
// an explicit Flush) leave no table and no file in the working
// directory, accesses are priced at the unit profile, and the batch
// fill from the memtable's run — which holds exactly the int-backed
// columns as ordinals — agrees with Get.
func TestMemoryStoreWritesNoFiles(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })

	m := NewMemory()
	n := 3 * Options{}.withDefaults().MemtableEntries
	for i := 0; i < n; i++ {
		if _, err := m.Append(ikey(i), mixedTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 7 {
		if err := m.Delete(i, ikey(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := m.TableCount(); got != 0 {
		t.Fatalf("TableCount = %d after %d appends", got, n)
	}
	if files, err := os.ReadDir(dir); err != nil || len(files) != 0 {
		t.Fatalf("working directory holds %d files (%v)", len(files), err)
	}
	kinds, enums, err := columnsOf(mixedTuple(0))
	if err != nil {
		t.Fatal(err)
	}
	for c, k := range kinds {
		if ords := m.mem.ords[c] != nil; ords != value.OrdKind(k) {
			t.Fatalf("column %d (%s): held as ordinals = %v", c, k, ords)
		}
	}
	if got, want := dumpRows(t, m, 0, m.SlotSpan(), kinds, enums), dumpGets(t, m); got != want {
		t.Fatal("batch fill diverged from Get")
	}
}

// TestMemtableReleasesDeadStrings: a store with no directory never
// flushes, so its memtable must not keep a dead row's strings alive.
// After Delete, and after Reset, the dead rows' string cells and keys
// read "", while the live rows keep theirs.
func TestMemtableReleasesDeadStrings(t *testing.T) {
	m := NewMemory()
	for i := 0; i < 10; i++ {
		if _, err := m.Append(ikey(i), mixedTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	cells := func(i int) []string {
		out := []string{m.mem.keys[i]}
		for c, k := range m.mem.kinds {
			if k == value.KindString {
				out = append(out, m.mem.strs[c][i])
			}
		}
		return out
	}
	released := func(stage string, i int) {
		t.Helper()
		for _, s := range cells(i) {
			if s != "" {
				t.Fatalf("%s: dead row %d still holds %q", stage, i, s)
			}
		}
	}
	if err := m.Delete(3, ikey(3)); err != nil {
		t.Fatal(err)
	}
	released("delete", 3)
	if got, want := cells(4), []string{ikey(4), mixedTuple(4)[4].AsString(), mixedTuple(4)[6].AsString()}; !reflect.DeepEqual(got, want) {
		t.Fatalf("live row 4 holds %q, want %q", got, want)
	}
	if err := m.Reset(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		released("reset", i)
	}
}
