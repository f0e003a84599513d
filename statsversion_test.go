package pascalr

import (
	"os"
	"path/filepath"
	"testing"
)

// TestOpenDirRebuildsOldStatistics opens testdata/stats_v1, a database
// directory whose checkpoint stores its statistics in serialization
// version 1 and whose WAL holds three more mutations (two inserts, one
// delete) made after that checkpoint. The old blob must not fail the
// open: statistics are derived data, so they are rebuilt from the
// relation after replay, counting the replayed rows. The next
// checkpoint writes the current version, which reopens as is.
func TestOpenDirRebuildsOldStatistics(t *testing.T) {
	dir := t.TempDir()
	files, err := os.ReadDir("testdata/stats_v1")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join("testdata/stats_v1", f.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, f.Name()), data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	const q = `[<s.snr> OF EACH s IN staff: (s.sstatus = professor)]`
	check := func(db *Database) {
		t.Helper()
		// Staff 1..40 were checkpointed (every fourth a professor); the
		// WAL adds professor 41 and student 42 and deletes student 3.
		if got := db.MustQuery(q).Len(); got != 11 {
			t.Fatalf("professors = %d, want 11", got)
		}
		for _, costBased := range []bool{false, true} {
			var opts []Option
			if costBased {
				opts = append(opts, WithCostBased())
			}
			res, err := db.Query(`[<s.sname> OF EACH s IN staff: (s.snr > 38)]`, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if res.Len() != 4 {
				t.Fatalf("cost-based=%v: staff above 38 = %d, want 4", costBased, res.Len())
			}
		}
		staff := db.db.MustRelation("staff")
		live, err := staff.LiveStats()
		if err != nil {
			t.Fatal(err)
		}
		if rows, n := live.Rows(), staff.Len(); rows != n || n != 41 {
			t.Fatalf("statistics count %d rows, relation holds %d, want 41", rows, n)
		}
	}

	db, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("open with version 1 statistics: %v", err)
	}
	check(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = OpenDir(dir)
	if err != nil {
		t.Fatalf("reopen after a checkpoint: %v", err)
	}
	defer db.Close()
	check(db)
}
