package relation

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pascalr/internal/schema"
	"pascalr/internal/storage"
	"pascalr/internal/value"
)

// wideSchema is a relation schema with a roomy key range, for workloads
// that need more rows than the employees fixture's 1..99 keys allow.
func wideSchema(t *testing.T, name string) *schema.RelSchema {
	t.Helper()
	return schema.MustRelSchema(name, []schema.Column{
		{Name: "id", Type: schema.IntType("widetype", 1, 1<<30)},
		{Name: "payload", Type: schema.StringType("padtype", 32)},
	}, []string{"id"})
}

func wrow(id int64, payload string) []value.Value {
	return []value.Value{value.Int(id), value.String_(payload)}
}

// copyDB clones a quiesced database directory into dst — a crash image
// taken at this instant.
func copyDB(t *testing.T, src, dst string) {
	t.Helper()
	wal, err := os.ReadFile(filepath.Join(src, storage.WALName))
	if err != nil {
		t.Fatal(err)
	}
	cloneDirTruncated(t, src, dst, len(wal))
}

// reopenCheck opens a crash image and verifies it recovers to exactly
// the expected fingerprint, then removes it.
func reopenCheck(t *testing.T, dir string, opts storage.Options, want, context string) {
	t.Helper()
	rd, err := OpenDB(dir, opts)
	if err != nil {
		t.Fatalf("%s: reopen: %v", context, err)
	}
	if got := fingerprint(t, rd); got != want {
		t.Fatalf("%s: recovered state diverged", context)
	}
	if err := rd.Close(); err != nil {
		t.Fatalf("%s: close: %v", context, err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionCrashTorture drives the size-tiered compactor and the
// obsolete-file GC through their crash windows. After every forced
// compaction and around every checkpoint's manifest-commit boundary it
// takes a directory image and recovers it: no image may lose a row,
// duplicate a row (a resurrected superseded table would), or fail to
// open because a referenced file was unlinked too early.
func TestCompactionCrashTorture(t *testing.T) {
	opts := storage.Options{
		Fsync:              storage.SyncNever,
		MemtableEntries:    4,
		CheckpointWALBytes: -1, // checkpoints only where the test forces them
	}
	src := t.TempDir()
	scratch := t.TempDir()
	d, err := OpenDB(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	r, err := d.Create(wideSchema(t, "wide"))
	if err != nil {
		t.Fatal(err)
	}
	disk := r.store

	// image snapshots the live state and verifies a crash image taken
	// right now recovers to it.
	img := 0
	image := func(context string) {
		t.Helper()
		d.Quiesce()
		if err := d.dur.wal.Sync(); err != nil {
			t.Fatal(err)
		}
		want := fingerprint(t, d)
		dir := filepath.Join(scratch, fmt.Sprintf("img%d", img))
		img++
		copyDB(t, src, dir)
		reopenCheck(t, dir, opts, want, context)
	}
	compact := func(context string) {
		t.Helper()
		d.Quiesce() // no background maintenance racing the forced run
		d.mu.Lock()
		err := disk.Compact()
		d.mu.Unlock()
		if err != nil {
			t.Fatalf("%s: compact: %v", context, err)
		}
		image(context)
	}
	// checkpointBoundaries runs a checkpoint and recovers an image from
	// each of its crash windows: before the manifest rename, after the
	// rename but before the WAL truncation, and after the truncation but
	// before the obsolete files were unlinked.
	checkpointBoundaries := func(context string) {
		t.Helper()
		d.Quiesce()
		if err := d.dur.wal.Sync(); err != nil {
			t.Fatal(err)
		}
		want := fingerprint(t, d)

		preDir := filepath.Join(scratch, fmt.Sprintf("pre%d", img))
		copyDB(t, src, preDir) // full pre-checkpoint image: WAL + old manifest + obsolete files
		preWAL, err := os.ReadFile(filepath.Join(src, storage.WALName))
		if err != nil {
			t.Fatal(err)
		}
		obsolete := disk.Obsolete()
		obsBytes := make(map[string][]byte, len(obsolete))
		for _, name := range obsolete {
			data, err := os.ReadFile(filepath.Join(src, name))
			if err != nil {
				t.Fatalf("%s: read superseded %s: %v", context, name, err)
			}
			obsBytes[name] = data
		}

		if err := d.Checkpoint(); err != nil {
			t.Fatalf("%s: checkpoint: %v", context, err)
		}
		if got := fingerprint(t, d); got != want {
			t.Fatalf("%s: checkpoint changed live state", context)
		}
		// The GC must have unlinked every superseded file the new
		// manifest no longer references...
		for _, name := range obsolete {
			if _, err := os.Stat(filepath.Join(src, name)); !os.IsNotExist(err) {
				t.Fatalf("%s: superseded file %s survived the checkpoint GC", context, name)
			}
		}
		// ...and none the manifest does reference.
		m, ok, err := storage.ReadManifest(src)
		if err != nil || !ok {
			t.Fatalf("%s: manifest after checkpoint: ok=%v err=%v", context, ok, err)
		}
		for _, rm := range m.Rels {
			for _, name := range rm.Disk.Tables {
				if _, err := os.Stat(filepath.Join(src, name)); err != nil {
					t.Fatalf("%s: manifest references missing table %s: %v", context, name, err)
				}
			}
		}

		// Window 1: crash before the manifest rename.
		reopenCheck(t, preDir, opts, want, context+" (pre-manifest crash)")

		// Window 2: crash after the rename, before the WAL truncation —
		// the new manifest plus the full old log; LastSeq must make the
		// replayed duplicates no-ops.
		dir2 := filepath.Join(scratch, fmt.Sprintf("mid%d", img))
		copyDB(t, src, dir2)
		if err := os.WriteFile(filepath.Join(dir2, storage.WALName), preWAL, 0o644); err != nil {
			t.Fatal(err)
		}
		reopenCheck(t, dir2, opts, want, context+" (post-manifest pre-truncate crash)")

		// Window 3: crash after the truncation, before the unlink — the
		// superseded files linger; recovery must drop them as orphans,
		// never resurrect their rows.
		dir3 := filepath.Join(scratch, fmt.Sprintf("gc%d", img))
		copyDB(t, src, dir3)
		for name, data := range obsBytes {
			if err := os.WriteFile(filepath.Join(dir3, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		reopenCheck(t, dir3, opts, want, context+" (pre-unlink crash)")
		img++
	}

	// Round 1: fill until a same-tier run exists, compact, checkpoint.
	for i := int64(1); i <= 48; i++ {
		if _, err := r.Insert(wrow(i, fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	compact("tiered merge")
	checkpointBoundaries("after tiered merge")

	// Round 2: tombstone-heavy — delete most rows, compact, checkpoint.
	for i := int64(1); i <= 40; i++ {
		if ok, err := r.Delete([]value.Value{value.Int(i)}); err != nil || !ok {
			t.Fatalf("delete %d ineffective", i)
		}
	}
	compact("dead-heavy merge")
	checkpointBoundaries("after dead-heavy merge")

	// Round 3: whole-relation assignment raises the reset floor; the
	// old tables retire without a rewrite.
	var bulk [][]value.Value
	for i := int64(100); i < 120; i++ {
		bulk = append(bulk, wrow(i, fmt.Sprintf("b%d", i)))
	}
	if err := r.Assign(bulk); err != nil {
		t.Fatal(err)
	}
	compact("below-floor retirement")
	checkpointBoundaries("after below-floor retirement")

	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayFingerprint recovers a crash image whose WAL interleaves
// mutations of several relations with DDL (index creation mid-stream)
// and an assignment: replay in log order must land on the live
// fingerprint.
func TestReplayFingerprint(t *testing.T) {
	opts := storage.Options{
		Fsync:              storage.SyncNever,
		MemtableEntries:    4,
		CheckpointWALBytes: -1,
	}
	src := t.TempDir()
	d, err := OpenDB(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	const nRels = 4
	rels := make([]*Relation, nRels)
	for i := range rels {
		r, err := d.Create(wideSchema(t, fmt.Sprintf("rel%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rels[i] = r
	}
	for i := int64(1); i <= 60; i++ {
		r := rels[i%nRels]
		if _, err := r.Insert(wrow(i, fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if i == 20 {
			// Mid-stream index creation: the backfill sees only the
			// relation's mutations logged before it.
			if _, err := rels[0].CreateIndex("payload"); err != nil {
				t.Fatal(err)
			}
		}
		if victim := i - int64(nRels); i%7 == 0 && victim > 0 {
			if ok, err := rels[victim%nRels].Delete([]value.Value{value.Int(victim)}); err != nil || !ok {
				t.Fatalf("delete %d ineffective: %v", victim, err)
			}
		}
	}
	var bulk [][]value.Value
	for i := int64(200); i < 215; i++ {
		bulk = append(bulk, wrow(i, "bulk"))
	}
	if err := rels[2].Assign(bulk); err != nil {
		t.Fatal(err)
	}
	if err := d.dur.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	d.Quiesce() // abandon without Close: recovery must come from the WAL
	want := fingerprint(t, d)

	dir := filepath.Join(t.TempDir(), "crash")
	copyDB(t, src, dir)
	reopenCheck(t, dir, opts, want, "interleaved WAL")
}

// TestGroupCommitConcurrentWriters hammers a SyncAlways database with
// concurrent inserters and deleters: every acknowledged mutation must
// be durable (a crash image contains it), and the full suite runs under
// the race detector in CI, exercising the ticket handoff and the
// leader-elected fsync.
func TestGroupCommitConcurrentWriters(t *testing.T) {
	opts := storage.Options{
		Fsync:              storage.SyncAlways,
		MemtableEntries:    16,
		CheckpointWALBytes: -1,
	}
	src := t.TempDir()
	d, err := OpenDB(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	r, err := d.Create(wideSchema(t, "wide"))
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 16
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := int64(w*perWriter + i + 1)
				if _, err := r.Insert(wrow(id, fmt.Sprintf("w%d", w))); err != nil {
					errs <- err
					return
				}
				if i%5 == 4 { // deletes share the group commit too
					if ok, err := r.Delete([]value.Value{value.Int(id)}); err != nil || !ok {
						errs <- fmt.Errorf("writer %d: delete %d ineffective", w, id)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	d.Quiesce()
	want := fingerprint(t, d)

	// Every return above was acknowledged durable: a crash image taken
	// now must recover every one of them, no wal.Sync needed.
	dir := filepath.Join(t.TempDir(), "crash")
	copyDB(t, src, dir)
	reopenCheck(t, dir, opts, want, "group-commit crash image")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}
