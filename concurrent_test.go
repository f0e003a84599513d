package pascalr

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"pascalr/internal/enginetest"
	"pascalr/internal/value"
)

// concurrentSchema is a small standalone schema for concurrency tests.
const concurrentSchema = `
TYPE statustype = (student, technician, assistant, professor);
VAR staff : RELATION <snr> OF
      RECORD snr : 1..9999; sname : PACKED ARRAY [1..10] OF char; sstatus : statustype END;
    duties : RELATION <dnr, dsnr> OF
      RECORD dnr : 1..9999; dsnr : 1..9999 END;
`

func concurrentDB(t *testing.T, rows int) *Database {
	t.Helper()
	db := New()
	db.MustExec(concurrentSchema)
	var b strings.Builder
	for i := 1; i <= rows; i++ {
		status := "student"
		if i%4 == 0 {
			status = "professor"
		}
		fmt.Fprintf(&b, "staff :+ [<%d, 's%07d', %s>];\n", i, i, status)
		fmt.Fprintf(&b, "duties :+ [<%d, %d>];\n", i, (i%rows)+1)
	}
	db.MustExec(b.String())
	return db
}

// TestConcurrentStmtQuery runs one prepared statement from 8 goroutines
// over one Database — the acceptance bar for concurrency-safe query
// execution — asserting every execution returns the same result. Every
// fourth call carries a reference-tuple budget too small for the
// query's combination-phase join: it alone must fail, so per-call
// options stay isolated between concurrent executions of one plan.
func TestConcurrentStmtQuery(t *testing.T) {
	db := concurrentDB(t, 60)
	stmt, err := db.Prepare(`[<s.sname, d.dnr, e.dnr> OF EACH s IN staff, EACH d IN duties, EACH e IN duties:
		(s.sstatus = professor) AND (s.snr = d.dsnr) AND (s.snr = e.dsnr)]`, WithCostBased())
	if err != nil {
		t.Fatal(err)
	}
	want, err := stmt.Query(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const reps = 10
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < reps; r++ {
				if (g+r)%4 == 0 {
					if _, err := stmt.Query(context.Background(), WithMaxRefTuples(1)); err == nil || !strings.Contains(err.Error(), "exceeded 1 reference tuples") {
						errs[g] = fmt.Errorf("goroutine %d rep %d: budget 1 gave %v, want the budget error", g, r, err)
						return
					}
					continue
				}
				res, err := stmt.Query(context.Background(), WithMaxRefTuples(1<<20))
				if err != nil {
					errs[g] = err
					return
				}
				if res.Len() != want.Len() {
					errs[g] = fmt.Errorf("goroutine %d rep %d: %d rows, want %d", g, r, res.Len(), want.Len())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentQueryAndExec interleaves one-shot queries (through the
// shared LRU plan cache), prepared statements, streamed cursors, and a
// writer goroutine mutating the database through Exec, one statement
// per call. It is the root leg of the version-window oracle: every
// answer must equal the baseline's at some content version the
// execution may have read (the last commit at or before the version
// read before it started, through the last at or before the one read
// after it ended), or be the retryable ErrStaleRead — which an opening
// QueryRows never returns, since its collection reads one consistent
// version. A one-shot stream resumed after a mid-stream stale read
// keeps the rows it yielded before, so it equals one version only
// while at most one element it references is deleted; this writer
// deletes only the element it inserted last.
func TestConcurrentQueryAndExec(t *testing.T) {
	db := concurrentDB(t, 80)
	src := `[<s.sname> OF EACH s IN staff: (s.sstatus = professor) AND
		SOME d IN duties ((d.dsnr = s.snr))]`
	stmt, err := db.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}

	const readers = 6
	const reps = 12
	var wg sync.WaitGroup
	errCh := make(chan error, readers+1)
	versions := []uint64{db.db.Version()}
	var script []string
	var mu sync.Mutex
	var windows []enginetest.Window
	legs := [...]string{"Query", "Stmt.Query", "QueryRows"}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < reps; i++ {
			for _, ex := range []string{
				fmt.Sprintf("staff :+ [<%d, 'w%07d', professor>];", 1000+i, 1000+i),
				fmt.Sprintf("duties :+ [<%d, %d>];", 1000+i, 1000+i),
				fmt.Sprintf("staff :- [<%d>];", 1000+i),
			} {
				if err := db.Exec(ex); err != nil {
					errCh <- fmt.Errorf("writer: %w", err)
					return
				}
				versions = append(versions, db.db.Version())
				script = append(script, ex)
			}
		}
	}()

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for r := 0; r < reps; r++ {
				lo := db.db.Version()
				var key string
				var err error
				switch r % 3 {
				case 0:
					var res *Result
					if res, err = db.Query(src, WithMaxRefTuples(1<<20)); err == nil {
						key = enginetest.RelKey(res.rows)
					}
				case 1:
					var res *Result
					if res, err = stmt.Query(ctx, WithMaxRefTuples(1<<20)); err == nil {
						key = enginetest.RelKey(res.rows)
					}
				default:
					var rows *Rows
					if rows, err = db.QueryRows(ctx, src); err != nil {
						errCh <- fmt.Errorf("reader %d: opening QueryRows: %w", g, err)
						return
					}
					var keys [][]value.Value
					for rows.Next() {
						keys = append(keys, append([]value.Value(nil), rows.cur.Row()...))
					}
					err = rows.Err()
					rows.Close()
					key = enginetest.RelKey(keys)
				}
				hi := db.db.Version()
				if errors.Is(err, ErrStaleRead) {
					continue
				}
				if err != nil {
					errCh <- fmt.Errorf("reader %d %s: %w", g, legs[r%3], err)
					return
				}
				mu.Lock()
				windows = append(windows, enginetest.Window{Label: legs[r%3], Lo: lo, Hi: hi, Key: key})
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// want[i] is the baseline's answer after the writer's first i
	// statements, whose version is versions[i].
	replay := concurrentDB(t, 80)
	want := []string{enginetest.RelKey(replay.MustQuery(src, WithBaseline()).rows)}
	for _, ex := range script {
		replay.MustExec(ex)
		want = append(want, enginetest.RelKey(replay.MustQuery(src, WithBaseline()).rows))
	}
	for _, w := range enginetest.WrongWindows(versions, windows, func(_, s int) string { return want[s] }) {
		t.Errorf("%s read between versions %d and %d is the baseline's answer at none of them: %s", w.Label, w.Lo, w.Hi, w.Key)
	}
}

// TestConcurrentStmtQueryAndDDL races a cost-based prepared statement
// against a writer that both mutates content (forcing the statement's
// statistics-staleness path to re-capture every relation's mutation
// counter) and declares new relations (growing the unsynchronized
// catalog under the DB's registration lock). Run under -race: the
// counter capture must read the relation registry through a guarded
// snapshot, not the bare catalog.
func TestConcurrentStmtQueryAndDDL(t *testing.T) {
	db := concurrentDB(t, 40)
	stmt, err := db.Prepare(`[<s.sname, d.dnr> OF EACH s IN staff, EACH d IN duties:
		(s.sstatus = professor) AND (s.snr = d.dsnr)]`, WithCostBased())
	if err != nil {
		t.Fatal(err)
	}

	const reps = 12
	var wg sync.WaitGroup
	errCh := make(chan error, 4)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < reps; i++ {
			ddl := fmt.Sprintf(`VAR extra%d : RELATION <xnr> OF RECORD xnr : 1..9999 END;
				staff :+ [<%d, 'd%07d', professor>];`, i, 2000+i, 2000+i)
			if err := db.Exec(ddl); err != nil {
				errCh <- fmt.Errorf("ddl writer: %w", err)
				return
			}
		}
	}()

	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < reps; r++ {
				if _, err := stmt.Query(context.Background()); err != nil {
					errCh <- fmt.Errorf("reader %d: %w", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
