package enginetest

import (
	"context"
	"testing"

	"pascalr/internal/engine"
	"pascalr/internal/parser"
	"pascalr/internal/relation"
	"pascalr/internal/stats"
	"pascalr/internal/storage"
	"pascalr/internal/workload"

	"pascalr/internal/calculus"
)

// diskDB builds the Figure 1 database on the durable SSTable backend
// with a tiny memtable, so every relation's contents spill to disk
// tables mid-population and the engine's scans run against the merging
// LSM read path instead of in-memory slots.
func diskDB(t *testing.T, scale int) *relation.DB {
	t.Helper()
	db, err := relation.OpenDB(t.TempDir(), storage.Options{
		Fsync:              storage.SyncNever,
		MemtableEntries:    8,
		CheckpointWALBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	cfg := workload.DefaultConfig(scale)
	if err := workload.DefineSchema(db, cfg); err != nil {
		t.Fatal(err)
	}
	if err := workload.Populate(db, cfg); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestDiskBackendWorkload runs the full differential matrix — every
// table query × all 32 strategy combinations × {static, uniform-cost,
// histogram-cost} planning — against the disk backend. Agreement with
// the tuple-substitution baseline proves the LSM read path presents
// exactly the relational contents.
func TestDiskBackendWorkload(t *testing.T) {
	db := diskDB(t, 10)
	RunTable(t, "disk", db, UniversityQueries)
}

// TestDiskMemoryBitIdentity runs every query under every strategy ×
// planner mode against the memory backend and the spilled disk backend
// and requires bit-identical results AND counter fingerprints: the
// backend may change where tuples live, never what the engine does.
func TestDiskMemoryBitIdentity(t *testing.T) {
	memDB := universityDB(t, 10)
	dskDB := diskDB(t, 10)
	ctx := context.Background()

	for _, q := range UniversityQueries {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			sel, err := parser.ParseSelection(q.Src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			memSel, memInfo, err := calculus.Check(sel, memDB.Catalog())
			if err != nil {
				t.Fatalf("check (mem): %v", err)
			}
			sel2, _ := parser.ParseSelection(q.Src)
			dskSel, dskInfo, err := calculus.Check(sel2, dskDB.Catalog())
			if err != nil {
				t.Fatalf("check (disk): %v", err)
			}
			memModes := PlannerModes(memDB)
			dskModes := PlannerModes(dskDB)
			for _, strat := range StrategySets() {
				for mi := range memModes {
					runOne := func(db *relation.DB, sel *calculus.Selection, info *calculus.Info, est *stats.Estimator) (string, string) {
						opts := engine.Options{Strategies: strat, CostBased: est != nil, Estimator: est}
						st := &stats.Counters{}
						got, err := engine.New(db, st).Eval(ctx, sel, info, opts)
						if err != nil {
							t.Fatalf("[%s %s]: %v", strat, memModes[mi].Name, err)
						}
						return RelKey(got), st.Fingerprint()
					}
					memKey, memFP := runOne(memDB, memSel, memInfo, memModes[mi].Est)
					dskKey, dskFP := runOne(dskDB, dskSel, dskInfo, dskModes[mi].Est)
					if memKey != dskKey {
						t.Fatalf("[%s %s]: results diverge between backends", strat, memModes[mi].Name)
					}
					if memFP != dskFP {
						t.Fatalf("[%s %s]: counter fingerprints diverge\nmem:  %s\ndisk: %s",
							strat, memModes[mi].Name, memFP, dskFP)
					}
				}
			}
		})
	}
}

// TestDiskBackendRecoveredWorkload kills the populated disk database
// without a checkpoint (WAL replay recovery) and runs a slice of the
// matrix on the recovered state: recovered contents must answer queries
// exactly like the original.
func TestDiskBackendRecoveredWorkload(t *testing.T) {
	dir := t.TempDir()
	opts := storage.Options{
		Fsync:              storage.SyncNever,
		MemtableEntries:    8,
		CheckpointWALBytes: -1,
	}
	db, err := relation.OpenDB(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultConfig(10)
	if err := workload.DefineSchema(db, cfg); err != nil {
		t.Fatal(err)
	}
	if err := workload.Populate(db, cfg); err != nil {
		t.Fatal(err)
	}
	// No Close: recovery must rebuild from manifest-less WAL alone.
	// Drain the abandoned database's background maintenance so it
	// stops touching the directory the recovered one reads.
	db.Quiesce()
	recovered, err := relation.OpenDB(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recovered.Close() })
	RunTable(t, "disk-recovered", recovered, UniversityQueries[:4])
}
