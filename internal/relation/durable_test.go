package relation

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pascalr/internal/colbatch"
	"pascalr/internal/schema"
	"pascalr/internal/stats"
	"pascalr/internal/storage"
	"pascalr/internal/value"
)

// tortureOpts forces the disk tier to exercise everything: a tiny
// memtable spills SSTables constantly, automatic checkpoints are off so
// the WAL holds the whole history, and fsync is off for speed (the
// torture kills by truncating copies, not the kernel).
func tortureOpts() storage.Options {
	return storage.Options{
		Fsync:              storage.SyncNever,
		MemtableEntries:    4,
		CheckpointWALBytes: -1,
	}
}

// fingerprint digests everything a query can observe: per relation (in
// declaration order) the slot layout, every live (slot, tuple) pair in
// scan order, the live count, and every permanent index's entries in
// iteration order. Two databases with equal fingerprints answer every
// query identically, references included.
func fingerprint(t *testing.T, d *DB) string {
	t.Helper()
	h := sha256.New()
	sink := &stats.Counters{}
	for _, name := range d.Catalog().Relations() {
		r, ok := d.Relation(name)
		if !ok {
			t.Fatalf("relation %s in catalog but not attached", name)
		}
		// ScanBatches is the lock-free snapshot path: its callers must
		// hold the content read lock (as the engine does), or a
		// background compaction can swap SSTables mid-scan. Scoped to
		// the scan only — Indexes() re-acquires the same lock itself.
		b := colbatch.New(len(r.Schema().Cols), 64)
		row := make([]value.Value, b.NumCols())
		d.RLock()
		fmt.Fprintf(h, "rel %s span=%d len=%d\n", name, r.SlotSpan(), r.Len())
		err := r.ScanBatches(sink, 0, r.SlotSpan(), b, nil, func() error {
			for i := 0; i < b.Len(); i++ {
				for c := range row {
					row[c] = b.ColVal(c, i)
				}
				fmt.Fprintf(h, "  %s -> %s\n", value.EncodeKey([]value.Value{b.Ref(i)}), value.EncodeKey(row))
			}
			return nil
		})
		d.RUnlock()
		if err != nil {
			t.Fatalf("scan %s: %v", name, err)
		}
		for _, col := range r.Indexes() {
			ix, _ := r.Index(col)
			fmt.Fprintf(h, "  index %s len=%d\n", col, ix.Len())
			// Sorted: a manifest-restored index backfills in slot order,
			// which may differ from the live run's insertion order while
			// indexing the identical set.
			var lines []string
			ix.Entries(func(v, ref value.Value) {
				lines = append(lines, value.EncodeKey([]value.Value{v})+"="+value.EncodeKey([]value.Value{ref}))
			})
			sort.Strings(lines)
			for _, l := range lines {
				fmt.Fprintf(h, "   %s\n", l)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// tortureWorkload drives one logged record per step against d and
// returns the fingerprint after every step: fps[k] is the state with
// exactly the first k records applied. The mix covers every WAL op —
// type and relation DDL, index creation, inserts (spilling SSTables at
// the tiny memtable threshold), deletes, and a bulk assignment.
func tortureWorkload(t *testing.T, d *DB) []string {
	t.Helper()
	fps := []string{fingerprint(t, d)}
	step := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		fps = append(fps, fingerprint(t, d))
	}

	sch := employeesSchema(t)
	enum, _ := sch.Cols[2].Type, ""
	step("define type", d.DefineType(enum))
	r, err := d.Create(sch)
	step("create", err)
	for i := int64(1); i <= 10; i++ {
		_, err := r.Insert(emp(i, fmt.Sprintf("P%d", i), int(i%4)))
		step("insert", err)
	}
	_, err = r.CreateIndex("estatus")
	step("create index", err)
	for _, k := range []int64{3, 7} {
		if ok, err := r.Delete([]value.Value{value.Int(k)}); err != nil || !ok {
			t.Fatalf("delete %d ineffective", k)
		}
		step("delete", nil)
	}
	for i := int64(11); i <= 16; i++ {
		_, err := r.Insert(emp(i, fmt.Sprintf("Q%d", i), int(i%4)))
		step("insert", err)
	}
	var bulk [][]value.Value
	for i := int64(1); i <= 7; i++ {
		bulk = append(bulk, emp(i*2, fmt.Sprintf("R%d", i), int(i%4)))
	}
	step("assign", r.Assign(bulk))
	for i := int64(30); i <= 34; i++ {
		_, err := r.Insert(emp(i, fmt.Sprintf("S%d", i), int(i%4)))
		step("insert", err)
	}
	if ok, err := r.Delete([]value.Value{value.Int(4)}); err != nil || !ok {
		t.Fatal("final delete ineffective")
	}
	step("delete", nil)
	return fps
}

// cloneDirTruncated copies a database directory, truncating the WAL
// copy to walLen bytes — the state a crash at that write offset leaves
// behind.
func cloneDirTruncated(t *testing.T, src, dst string, walLen int) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == storage.WALName {
			data = data[:walLen]
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// runWALOffsetTorture kills replay at every stride-th byte offset of
// the log: for each prefix length, recovery must land exactly on the
// state after the last wholly-durable record — never a half-applied one
// — including SSTables the memtable had spilled past the checkpoint
// (orphans are dropped and deterministically recreated by replay).
func runWALOffsetTorture(t *testing.T, opts storage.Options, stride int) {
	src := t.TempDir()
	d, err := OpenDB(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	fps := tortureWorkload(t, d)
	if err := d.dur.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	// Abandon d without Close: Close would checkpoint and reset the
	// log. Drain background maintenance first so the directory is a
	// static crash image (any compacted tables become orphans that
	// recovery deletes and replay deterministically recreates).
	d.Quiesce()
	walData, err := os.ReadFile(filepath.Join(src, storage.WALName))
	if err != nil {
		t.Fatal(err)
	}
	if _, valid := storage.ScanFrames(walData); valid != int64(len(walData)) {
		t.Fatalf("workload WAL has invalid tail: %d of %d bytes valid", valid, len(walData))
	}

	scratch := t.TempDir()
	for off := 0; off <= len(walData); off += stride {
		payloads, valid := storage.ScanFrames(walData[:off])
		k := len(payloads)
		dir := filepath.Join(scratch, fmt.Sprintf("off%d", off))
		cloneDirTruncated(t, src, dir, off)
		rd, err := OpenDB(dir, opts)
		if err != nil {
			t.Fatalf("offset %d: reopen: %v", off, err)
		}
		if got := fingerprint(t, rd); got != fps[k] {
			t.Fatalf("offset %d (%d records durable): recovered state diverged", off, k)
		}
		// The torn tail must be gone from the recovered log, so the
		// next append extends a clean prefix.
		if rd.dur.wal.Size() != valid {
			t.Fatalf("offset %d: recovered WAL size %d, want %d", off, rd.dur.wal.Size(), valid)
		}
		if err := rd.Close(); err != nil {
			t.Fatalf("offset %d: close: %v", off, err)
		}
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
	}
}

func TestWALTortureEveryOffset(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 17
	}
	runWALOffsetTorture(t, tortureOpts(), stride)
}

// TestGroupCommitWALTorture reruns the offset torture with SyncAlways —
// the workload's appends flow through the group-commit ticket path, so
// the log a crash leaves behind was written by leader-elected batched
// fsyncs rather than the SyncNever fast path. Recovery semantics must
// be identical. Real fsyncs make each step expensive, so the stride is
// coarser than the SyncNever sweep.
func TestGroupCommitWALTorture(t *testing.T) {
	opts := tortureOpts()
	opts.Fsync = storage.SyncAlways
	stride := 11
	if testing.Short() {
		stride = 101
	}
	runWALOffsetTorture(t, opts, stride)
}

// TestWALTortureCorruptTail flips single bytes in the log: the CRC must
// catch the damage, and recovery must stop at the record before the
// corrupt frame — wholly dropping it, never applying a mangled version.
func TestWALTortureCorruptTail(t *testing.T) {
	src := t.TempDir()
	d, err := OpenDB(src, tortureOpts())
	if err != nil {
		t.Fatal(err)
	}
	fps := tortureWorkload(t, d)
	d.Quiesce() // static crash image; see TestWALTortureEveryOffset
	walData, err := os.ReadFile(filepath.Join(src, storage.WALName))
	if err != nil {
		t.Fatal(err)
	}

	stride := 13
	if testing.Short() {
		stride = 101
	}
	scratch := t.TempDir()
	for pos := 0; pos < len(walData); pos += stride {
		// Records wholly before the corrupt byte survive; the frame
		// containing it and everything after must vanish.
		payloads, _ := storage.ScanFrames(walData[:pos])
		k := len(payloads)
		dir := filepath.Join(scratch, fmt.Sprintf("pos%d", pos))
		cloneDirTruncated(t, src, dir, len(walData))
		mangled := append([]byte(nil), walData...)
		mangled[pos] ^= 0x40
		if err := os.WriteFile(filepath.Join(dir, storage.WALName), mangled, 0o644); err != nil {
			t.Fatal(err)
		}
		rd, err := OpenDB(dir, tortureOpts())
		if err != nil {
			t.Fatalf("corrupt byte %d: reopen: %v", pos, err)
		}
		if got := fingerprint(t, rd); got != fps[k] {
			t.Fatalf("corrupt byte %d (%d records intact): recovered state diverged", pos, k)
		}
		if err := rd.Close(); err != nil {
			t.Fatalf("corrupt byte %d: close: %v", pos, err)
		}
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointRoundTrip closes cleanly (checkpoint) and reopens: the
// state, the WAL (now empty), and the persisted table statistics must
// all come back exactly — recovery must not reset TableStats.
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDB(dir, tortureOpts())
	if err != nil {
		t.Fatal(err)
	}
	fps := tortureWorkload(t, d)
	want := fps[len(fps)-1]
	r, _ := d.Relation("employees")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	wantStats, err := r.stTable.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	rd, err := OpenDB(dir, tortureOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if got := fingerprint(t, rd); got != want {
		t.Fatal("checkpointed state diverged after reopen")
	}
	if rd.dur.wal.Size() != 0 {
		t.Fatalf("WAL size %d after checkpointed close, want 0", rd.dur.wal.Size())
	}
	rr, _ := rd.Relation("employees")
	gotStats, err := rr.stTable.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotStats, wantStats) {
		t.Fatal("recovered TableStats diverged from checkpointed ones")
	}
	if rows := rr.stTable.Rows(); rows != rr.Len() {
		t.Fatalf("recovered stats row count %d, want %d", rows, rr.Len())
	}
	// The recovered database keeps working durably.
	if _, err := rr.Insert(emp(90, "post", 1)); err != nil {
		t.Fatal(err)
	}
	if err := rd.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashReplayPreservesStats recovers without a checkpoint: pure WAL
// replay must rebuild the statistics through the same observations the
// live run made.
func TestCrashReplayPreservesStats(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDB(dir, tortureOpts())
	if err != nil {
		t.Fatal(err)
	}
	tortureWorkload(t, d)
	r, _ := d.Relation("employees")
	wantStats, err := r.stTable.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.dur.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	// No Close: simulate a kill. Drain maintenance so the abandoned
	// database stops touching the directory the recovered one reads.
	d.Quiesce()
	rd, err := OpenDB(dir, tortureOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	rr, _ := rd.Relation("employees")
	gotStats, err := rr.stTable.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotStats, wantStats) {
		t.Fatal("replayed TableStats diverged from the live run's")
	}
}

// TestDurableMaintenance exercises the automatic paths the torture
// tests disable: WAL-size-triggered checkpoints and compaction of a
// delete-heavy disk tier, racing ordinary traffic.
func TestDurableMaintenance(t *testing.T) {
	dir := t.TempDir()
	opts := storage.Options{
		Fsync:              storage.SyncNever,
		MemtableEntries:    8,
		CheckpointWALBytes: 512,
	}
	d, err := OpenDB(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.DefineType(employeesSchema(t).Cols[2].Type); err != nil {
		t.Fatal(err)
	}
	r, err := d.Create(employeesSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 99; i++ {
		if _, err := r.Insert(emp(i, fmt.Sprintf("N%d", i), int(i%4))); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1); i <= 90; i++ {
		if ok, err := r.Delete([]value.Value{value.Int(i)}); err != nil || !ok {
			t.Fatalf("delete %d ineffective", i)
		}
	}
	want := fingerprint(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := OpenDB(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if got := fingerprint(t, rd); got != want {
		t.Fatal("state diverged across checkpoint/compaction cycle")
	}
}

// chunkTestDB builds a durable database holding one checkpointed
// employee and returns its directory, the checkpoint's last sequence
// number, and the relation's id — the fixture for hand-written WAL
// chunk groups.
func chunkTestDB(t *testing.T) (dir string, seq uint64, relID int) {
	t.Helper()
	dir = t.TempDir()
	d, err := OpenDB(dir, tortureOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.DefineType(employeesSchema(t).Cols[2].Type); err != nil {
		t.Fatal(err)
	}
	r, err := d.Create(employeesSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Insert(emp(1, "base", 1)); err != nil {
		t.Fatal(err)
	}
	relID = r.ID()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	m, ok, err := storage.ReadManifest(dir)
	if err != nil || !ok {
		t.Fatalf("manifest after close: ok=%v err=%v", ok, err)
	}
	return dir, m.LastSeq, relID
}

// appendWALRecords appends hand-built records to a closed database's
// log, simulating the tail a crash left behind.
func appendWALRecords(t *testing.T, dir string, recs []storage.Record) {
	t.Helper()
	w, _, err := storage.RecoverWAL(dir, storage.SyncNever)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		payload, err := storage.EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// enrs lists a database's employee keys in scan order.
func enrs(t *testing.T, d *DB) []int64 {
	t.Helper()
	r, ok := d.Relation("employees")
	if !ok {
		t.Fatal("employees missing")
	}
	var out []int64
	r.Scan(nil, func(_ value.Value, tuple []value.Value) bool {
		out = append(out, tuple[0].AsInt())
		return true
	})
	return out
}

// TestAssignChunkReplay replays a hand-written OpAssign chunk group: a
// complete group must apply as one atomic assignment, a torn group
// (final chunk missing) must be wholly dropped, and an orphan
// continuation chunk is corruption.
func TestAssignChunkReplay(t *testing.T) {
	t.Run("complete", func(t *testing.T) {
		dir, seq, relID := chunkTestDB(t)
		appendWALRecords(t, dir, []storage.Record{
			{Seq: seq + 1, Op: storage.OpAssign, Rel: relID, More: true, Tuples: [][]value.Value{emp(2, "b", 1)}},
			{Seq: seq + 2, Op: storage.OpAssign, Rel: relID, Cont: true, Tuples: [][]value.Value{emp(3, "c", 2)}},
		})
		d, err := OpenDB(dir, tortureOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if got := enrs(t, d); len(got) != 2 || got[0] != 2 || got[1] != 3 {
			t.Fatalf("recovered keys %v, want the merged assignment [2 3]", got)
		}
	})
	t.Run("torn", func(t *testing.T) {
		dir, seq, relID := chunkTestDB(t)
		appendWALRecords(t, dir, []storage.Record{
			{Seq: seq + 1, Op: storage.OpAssign, Rel: relID, More: true, Tuples: [][]value.Value{emp(2, "b", 1)}},
		})
		d, err := OpenDB(dir, tortureOpts())
		if err != nil {
			t.Fatal(err)
		}
		if got := enrs(t, d); len(got) != 1 || got[0] != 1 {
			t.Fatalf("recovered keys %v, want the pre-assignment [1] (torn group dropped)", got)
		}
		// The database must keep working durably past the dropped group.
		r, _ := d.Relation("employees")
		if _, err := r.Insert(emp(4, "post", 1)); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		rd, err := OpenDB(dir, tortureOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		if got := enrs(t, rd); len(got) != 2 || got[0] != 1 || got[1] != 4 {
			t.Fatalf("keys %v after reopen, want [1 4]", got)
		}
	})
	t.Run("orphan", func(t *testing.T) {
		dir, seq, relID := chunkTestDB(t)
		appendWALRecords(t, dir, []storage.Record{
			{Seq: seq + 1, Op: storage.OpAssign, Rel: relID, Cont: true, Tuples: [][]value.Value{emp(2, "b", 1)}},
		})
		if d, err := OpenDB(dir, tortureOpts()); err == nil {
			d.Close()
			t.Fatal("orphan continuation chunk replayed without error")
		}
	})
}

// TestWALFailureFailsStop: once a WAL append fails, the database must
// fail stop. The failing mutation returns the WAL error; it was applied
// in memory before the append failed, and recovery will not reproduce
// it, so every content read — point reads, scans, the engine's batch
// scan and dereference — returns the same sticky error. Every later
// mutation and checkpoint refuses with it, Close surfaces it, and
// reopening recovers the last durable state. One leg per first failure:
// a delete and an insert.
func TestWALFailureFailsStop(t *testing.T) {
	for _, tc := range []struct {
		name string
		fail func(t *testing.T, r *Relation) error
	}{
		{"delete", func(t *testing.T, r *Relation) error {
			ok, err := r.Delete([]value.Value{value.Int(1)})
			if ok {
				t.Error("unloggable delete acknowledged")
			}
			return err
		}},
		{"insert", func(_ *testing.T, r *Relation) error {
			_, err := r.Insert(emp(3, "N3", 1))
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := OpenDB(dir, tortureOpts())
			if err != nil {
				t.Fatal(err)
			}
			if err := d.DefineType(employeesSchema(t).Cols[2].Type); err != nil {
				t.Fatal(err)
			}
			r, err := d.Create(employeesSchema(t))
			if err != nil {
				t.Fatal(err)
			}
			var ref value.Value
			for i := int64(1); i <= 2; i++ {
				if ref, err = r.Insert(emp(i, fmt.Sprintf("N%d", i), 1)); err != nil {
					t.Fatal(err)
				}
			}
			want := fingerprint(t, d)

			// Fault injection: close the log out from under the
			// database; every append from here on fails.
			if err := d.dur.wal.Close(); err != nil {
				t.Fatal(err)
			}
			err = tc.fail(t, r)
			sticky := d.Err()
			if err == nil || err != sticky {
				t.Fatalf("refused %s returned %v, want the WAL error %v", tc.name, err, sticky)
			}

			key := []value.Value{value.Int(1)}
			reads := map[string]error{}
			_, _, reads["Get"] = r.Get(key)
			_, _, reads["Lookup"] = r.Lookup(key)
			reads["Scan"] = r.Scan(nil, func(value.Value, []value.Value) bool { return true })
			d.RLock()
			b := colbatch.New(len(r.Schema().Cols), 8)
			reads["ScanBatches"] = r.ScanBatches(nil, 0, r.SlotSpan(), b, nil, func() error { return nil })
			_, reads["DerefInto"] = r.DerefInto(ref, nil)
			_, reads["Deref"] = d.Deref(ref)
			d.RUnlock()
			for what, err := range reads {
				if err != sticky {
					t.Errorf("%s after the WAL failure = %v, want the sticky error", what, err)
				}
			}

			if _, err := r.Insert(emp(9, "late", 1)); err != sticky {
				t.Fatalf("insert after durability failure = %v, want the sticky error", err)
			}
			if ok, err := r.Delete([]value.Value{value.Int(2)}); ok || err != sticky {
				t.Fatalf("delete after durability failure = (%v, %v), want the sticky error", ok, err)
			}
			if err := r.Assign([][]value.Value{emp(8, "bulk", 1)}); err != sticky {
				t.Fatalf("assign after durability failure = %v, want the sticky error", err)
			}
			if _, err := r.CreateIndex("estatus"); err != sticky {
				t.Fatalf("index creation after durability failure = %v, want the sticky error", err)
			}
			if err := d.Checkpoint(); err != sticky {
				t.Fatalf("checkpoint after durability failure = %v, want the sticky error", err)
			}
			if err := d.Close(); err == nil {
				t.Fatal("Close swallowed the sticky durability error")
			}

			rd, err := OpenDB(dir, tortureOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer rd.Close()
			if got := fingerprint(t, rd); got != want {
				t.Fatal("recovered state diverged from the last durable state")
			}
		})
	}
}

// TestInsertProbeErrorAppendsNothing: when the key probe cannot read
// the SSTable holding a key, Insert of that key must fail and append
// nothing — treating the unreadable table as "absent" would give the
// key a second live element (and log it). The block cache is off so the
// probe reads the file itself.
func TestInsertProbeErrorAppendsNothing(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDB(dir, storage.Options{Fsync: storage.SyncNever, CheckpointWALBytes: -1, BlockCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	r, err := d.Create(wideSchema(t, "wide"))
	if err != nil {
		t.Fatal(err)
	}
	row := wrow(1, "one")
	if _, err := r.Insert(row); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil { // flushes the row into an SSTable
		t.Fatal(err)
	}
	tables := r.store.Meta().Tables
	if len(tables) != 1 {
		t.Fatalf("checkpoint left %d tables, want 1", len(tables))
	}
	// Keep only the magic: the data, key-index and footer sections are gone.
	if err := os.Truncate(filepath.Join(dir, tables[0]), 8); err != nil {
		t.Fatal(err)
	}
	span, n := r.SlotSpan(), r.Len()
	if _, err := r.Insert(row); err == nil {
		t.Fatal("insert over an unreadable key probe succeeded")
	}
	if r.SlotSpan() != span || r.Len() != n {
		t.Fatalf("failed insert changed the relation: span %d -> %d, len %d -> %d", span, r.SlotSpan(), n, r.Len())
	}
}

// TestDeleteProbeErrorRemovesNothing: when the key probe cannot read
// the SSTable holding a key, Delete of that key must return the error
// and remove nothing — answering "absent" would report a failed read as
// a no-op (and, in replay, as a logged delete of an absent key). The
// block cache is off so the probe reads the file itself.
func TestDeleteProbeErrorRemovesNothing(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDB(dir, storage.Options{Fsync: storage.SyncNever, CheckpointWALBytes: -1, BlockCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	r, err := d.Create(wideSchema(t, "wide"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Insert(wrow(1, "one")); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil { // flushes the row into an SSTable
		t.Fatal(err)
	}
	tables := r.store.Meta().Tables
	if len(tables) != 1 {
		t.Fatalf("checkpoint left %d tables, want 1", len(tables))
	}
	// Keep only the magic: the data, key-index and footer sections are gone.
	if err := os.Truncate(filepath.Join(dir, tables[0]), 8); err != nil {
		t.Fatal(err)
	}
	span, n := r.SlotSpan(), r.Len()
	if ok, err := r.Delete([]value.Value{value.Int(1)}); ok || err == nil {
		t.Fatalf("delete over an unreadable key probe = (%v, %v), want an error", ok, err)
	}
	if r.SlotSpan() != span || r.Len() != n {
		t.Fatalf("failed delete changed the relation: span %d -> %d, len %d -> %d", span, r.SlotSpan(), n, r.Len())
	}
}

// TestPointReadProbeError: when the key probe cannot read the SSTable
// holding a key, Get and Lookup must return the read error — answering
// "absent" would report a corrupt table as a missing element. A key
// that is in the memtable is still found. The block cache is off so the
// probe reads the file itself.
func TestPointReadProbeError(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDB(dir, storage.Options{Fsync: storage.SyncNever, CheckpointWALBytes: -1, BlockCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	r, err := d.Create(wideSchema(t, "wide"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Insert(wrow(1, "one")); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil { // flushes the row into an SSTable
		t.Fatal(err)
	}
	if _, err := r.Insert(wrow(2, "two")); err != nil { // stays in the memtable
		t.Fatal(err)
	}
	tables := r.store.Meta().Tables
	if len(tables) != 1 {
		t.Fatalf("checkpoint left %d tables, want 1", len(tables))
	}
	// Keep only the magic: the data, key-index and footer sections are gone.
	if err := os.Truncate(filepath.Join(dir, tables[0]), 8); err != nil {
		t.Fatal(err)
	}
	key := []value.Value{value.Int(1)}
	if tup, ok, err := r.Get(key); ok || err == nil {
		t.Fatalf("Get over an unreadable key probe = (%v, %v, %v), want an error", tup, ok, err)
	}
	if ref, ok, err := r.Lookup(key); ok || err == nil {
		t.Fatalf("Lookup over an unreadable key probe = (%v, %v, %v), want an error", ref, ok, err)
	}
	if _, ok, err := r.Get([]value.Value{value.Int(2)}); !ok || err != nil {
		t.Fatalf("Get of a memtable key = (%v, %v), want found", ok, err)
	}
}

// TestDeleteAbsentKeyLogsNothing: Delete of a key that is in neither
// the memtable nor any SSTable is a no-op — (false, nil), no WAL record
// (replay treats a logged delete of an absent key as corruption), and
// no version bump.
func TestDeleteAbsentKeyLogsNothing(t *testing.T) {
	d, err := OpenDB(t.TempDir(), tortureOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	r, err := d.Create(wideSchema(t, "wide"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Insert(wrow(1, "one")); err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		seq, v := d.dur.seq, d.Version()
		if ok, err := r.Delete([]value.Value{value.Int(99)}); ok || err != nil {
			t.Fatalf("%s: delete of an absent key = (%v, %v), want (false, <nil>)", stage, ok, err)
		}
		if d.dur.seq != seq {
			t.Fatalf("%s: delete of an absent key logged a record (seq %d -> %d)", stage, seq, d.dur.seq)
		}
		if d.Version() != v {
			t.Fatalf("%s: delete of an absent key bumped the version", stage)
		}
	}
	check("memtable")
	if err := d.Checkpoint(); err != nil { // the probe now also reads an SSTable
		t.Fatal(err)
	}
	check("sstable")
	if r.Len() != 1 {
		t.Fatalf("Len = %d after no-op deletes, want 1", r.Len())
	}
}

// TestDeleteCheckpointedKey: Delete of a key living in an SSTable (not
// the memtable) removes it — one WAL record, the element gone from Get
// and from the permanent index, whose entry is found through the tuple
// read back from the table's block.
func TestDeleteCheckpointedKey(t *testing.T) {
	d, err := OpenDB(t.TempDir(), tortureOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	r, err := d.Create(wideSchema(t, "wide"))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range []string{"one", "two"} {
		if _, err := r.Insert(wrow(int64(i+1), p)); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := r.CreateIndex("payload")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if len(r.store.Meta().Tables) == 0 {
		t.Fatal("checkpoint left no SSTable")
	}
	seq := d.dur.seq
	if ok, err := r.Delete([]value.Value{value.Int(1)}); !ok || err != nil {
		t.Fatalf("delete of a checkpointed key = (%v, %v), want (true, <nil>)", ok, err)
	}
	if d.dur.seq != seq+1 {
		t.Fatalf("delete logged %d records, want 1", d.dur.seq-seq)
	}
	if _, ok, err := r.Get([]value.Value{value.Int(1)}); ok || err != nil {
		t.Fatal("deleted key still readable")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d after the delete, want 1", r.Len())
	}
	if ix.Len() != 1 || eqRefs(ix, value.String_("one")) != 0 || eqRefs(ix, value.String_("two")) != 1 {
		t.Fatalf("index after the delete: %d entries, one=%d two=%d; want 1, 0, 1",
			ix.Len(), eqRefs(ix, value.String_("one")), eqRefs(ix, value.String_("two")))
	}
}

// TestReplayDelete replays a hand-written delete of the checkpointed
// employee: a delete of a key living in an SSTable must apply, a delete
// of an absent key is corruption, and a delete whose slot read fails
// must report the read error rather than "absent key".
func TestReplayDelete(t *testing.T) {
	t.Run("checkpointed key", func(t *testing.T) {
		dir, seq, relID := chunkTestDB(t)
		appendWALRecords(t, dir, []storage.Record{
			{Seq: seq + 1, Op: storage.OpDelete, Rel: relID, Key: []value.Value{value.Int(1)}},
		})
		d, err := OpenDB(dir, tortureOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if got := enrs(t, d); len(got) != 0 {
			t.Fatalf("recovered keys %v, want none", got)
		}
	})
	t.Run("absent key", func(t *testing.T) {
		dir, seq, relID := chunkTestDB(t)
		appendWALRecords(t, dir, []storage.Record{
			{Seq: seq + 1, Op: storage.OpDelete, Rel: relID, Key: []value.Value{value.Int(99)}},
		})
		d, err := OpenDB(dir, tortureOpts())
		if err == nil {
			d.Close()
			t.Fatal("replay accepted a logged delete of an absent key")
		}
		if !strings.Contains(err.Error(), "logged delete of absent key") {
			t.Fatalf("replay error %q does not name the absent key", err)
		}
	})
	t.Run("unreadable slot", func(t *testing.T) {
		dir, seq, relID := chunkTestDB(t)
		appendWALRecords(t, dir, []storage.Record{
			{Seq: seq + 1, Op: storage.OpDelete, Rel: relID, Key: []value.Value{value.Int(1)}},
		})
		m, ok, err := storage.ReadManifest(dir)
		if err != nil || !ok {
			t.Fatalf("manifest: ok=%v err=%v", ok, err)
		}
		tables := m.Rels[relID].Disk.Tables
		if len(tables) != 1 {
			t.Fatalf("employees tables = %v, want one", tables)
		}
		// Flip the first payload byte of the first data block (after the
		// 8-byte magic and the 8-byte frame header): the footer and key
		// index still open and probe, but the block fails its CRC.
		path := filepath.Join(dir, tables[0])
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[16] ^= 0xff
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDB(dir, tortureOpts())
		if err == nil {
			d.Close()
			t.Fatal("replay applied a delete whose slot could not be read")
		}
		if strings.Contains(err.Error(), "absent key") || !strings.Contains(err.Error(), "delete:") {
			t.Fatalf("replay error %q, want the delete's read error", err)
		}
	})
}

// TestLargeAssignChunkedDurable drives an assignment past the 8 MiB
// chunk threshold through the public mutator: the log must hold it as
// multiple bounded frames (a single frame this size would previously
// poison recovery, which truncates at any over-limit frame), and pure
// WAL replay must recover the full assignment.
func TestLargeAssignChunkedDurable(t *testing.T) {
	if testing.Short() {
		t.Skip("writes ~20MB")
	}
	dir := t.TempDir()
	opts := storage.Options{Fsync: storage.SyncNever, CheckpointWALBytes: -1}
	d, err := OpenDB(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := schema.NewRelSchema("blobs", []schema.Column{
		{Name: "id", Type: schema.IntType("bidtype", 1, 1<<30)},
		{Name: "payload", Type: schema.StringType("blobtype", 1<<20)},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	r, err := d.Create(sch)
	if err != nil {
		t.Fatal(err)
	}
	blob := strings.Repeat("x", 9000)
	var tuples [][]value.Value
	for i := int64(1); i <= 1200; i++ {
		tuples = append(tuples, []value.Value{value.Int(i), value.String_(fmt.Sprintf("%s%d", blob, i))})
	}
	if err := r.Assign(tuples); err != nil {
		t.Fatal(err)
	}
	if err := d.dur.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	d.Quiesce() // abandon without Close: recovery must come from the WAL

	walData, err := os.ReadFile(filepath.Join(dir, storage.WALName))
	if err != nil {
		t.Fatal(err)
	}
	payloads, valid := storage.ScanFrames(walData)
	if valid != int64(len(walData)) {
		t.Fatalf("WAL tail invalid: %d of %d bytes", valid, len(walData))
	}
	if len(payloads) < 3 { // CreateRel + at least two assignment chunks
		t.Fatalf("%d WAL records, want the assignment chunked into several", len(payloads))
	}
	want := fingerprint(t, d)

	rd, err := OpenDB(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if got := fingerprint(t, rd); got != want {
		t.Fatal("replayed chunked assignment diverged from the live state")
	}
	rr, _ := rd.Relation("blobs")
	if rr.Len() != len(tuples) {
		t.Fatalf("recovered %d tuples, want %d", rr.Len(), len(tuples))
	}
}
