package relation

import (
	"os"
	"path/filepath"
	"testing"

	"pascalr/internal/schema"
	"pascalr/internal/storage"
	"pascalr/internal/value"
)

// BenchmarkStorageRecovery times the durability subsystem's two hot
// paths: cold-start WAL replay of an uncheckpointed database, and the
// bloom-filter negative-probe fast path that spares the LSM read
// amplification. CI converts the output to BENCH_storage_recovery.json.
func BenchmarkStorageRecovery(b *testing.B) {
	b.Run("replay", benchReplay)
	b.Run("bloom-negative-probe", benchBloomNegativeProbe)
}

// benchReplay builds one durable database — schema, index, 2000
// inserts, 200 deletes, never checkpointed — then times OpenDB's full
// recovery: manifest-less orphan cleanup plus WAL replay through the
// mutators, memtable spills included.
func benchReplay(b *testing.B) {
	opts := storage.Options{
		Fsync:              storage.SyncNever,
		MemtableEntries:    256,
		CheckpointWALBytes: -1,
	}
	src := b.TempDir()
	d, err := OpenDB(src, opts)
	if err != nil {
		b.Fatal(err)
	}
	sch, mkEmp := benchSchema(b)
	if err := d.DefineType(sch.Cols[2].Type); err != nil {
		b.Fatal(err)
	}
	r, err := d.Create(sch)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := r.CreateIndex("estatus"); err != nil {
		b.Fatal(err)
	}
	const inserts, deletes = 2000, 200
	for i := 1; i <= inserts; i++ {
		if _, err := r.Insert(mkEmp(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
	for i := 1; i <= deletes; i++ {
		if ok, err := r.Delete([]value.Value{value.Int(int64(i * 7 % inserts))}); err != nil || !ok {
			b.Fatalf("delete %d ineffective", i)
		}
	}
	records := 3 + inserts + deletes
	if err := d.dur.wal.Sync(); err != nil {
		b.Fatal(err)
	}
	// No Close: Close would checkpoint and leave nothing to replay.
	// Drain background maintenance so the source directory is static.
	d.Quiesce()

	files, err := os.ReadDir(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(b.TempDir(), "copy")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			b.Fatal(err)
		}
		for _, f := range files {
			data, err := os.ReadFile(filepath.Join(src, f.Name()))
			if err != nil {
				b.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, f.Name()), data, 0o644); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		rd, err := OpenDB(dir, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if rr, _ := rd.Relation("employees"); rr.Len() != inserts-deletes {
			b.Fatalf("recovered %d rows, want %d", rr.Len(), inserts-deletes)
		}
		rd.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(records), "records/op")
}

// benchBloomNegativeProbe probes keys absent from a many-tabled disk
// backend: the filters must answer nearly every table consultation
// without I/O. The reported skip ratio is the negative-probe fast
// path's effectiveness (1.0 = no wasted reads).
func benchBloomNegativeProbe(b *testing.B) {
	d := storage.NewDisk(b.TempDir(), 0, storage.Options{
		Fsync:           storage.SyncNever,
		MemtableEntries: 64,
	}, nil)
	defer d.Close()
	const keys = 4096
	for i := 0; i < keys; i++ {
		enc := value.EncodeKey([]value.Value{value.Int(int64(i))})
		if _, err := d.Append(enc, []value.Value{value.Int(int64(i))}); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		b.Fatal(err)
	}
	tables := d.TableCount()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := value.EncodeKey([]value.Value{value.Int(int64(keys + i))})
		if _, ok := d.LookupKey(enc); ok {
			b.Fatal("phantom key")
		}
	}
	b.StopTimer()
	consults := uint64(b.N) * uint64(tables)
	if consults > 0 {
		b.ReportMetric(float64(d.BloomNegatives())/float64(consults), "skip-ratio")
	}
	b.ReportMetric(float64(tables), "tables")
}

// benchSchema is the employees schema widened so the key column admits
// enough distinct tuples for a benchmark-sized workload.
func benchSchema(b *testing.B) (*schema.RelSchema, func(int64) []value.Value) {
	b.Helper()
	st, err := schema.EnumType("statustype", "student", "technician", "assistant", "professor")
	if err != nil {
		b.Fatal(err)
	}
	sch := schema.MustRelSchema("employees", []schema.Column{
		{Name: "enr", Type: schema.IntType("enumbertype", 1, 1<<20)},
		{Name: "ename", Type: schema.StringType("nametype", 10)},
		{Name: "estatus", Type: st},
	}, []string{"enr"})
	mk := func(enr int64) []value.Value {
		return []value.Value{
			value.Int(enr),
			value.String_("e" + string(rune('a'+enr%26))),
			value.Enum("statustype", int(enr%4)),
		}
	}
	return sch, mk
}
