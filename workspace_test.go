package pascalr

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"pascalr/internal/recycle"
)

// poisonWorkspaces switches recycle.Poison on for the rest of the
// test: every structure an execution's workspace takes back is
// overwritten with garbage, so a read of returned memory shows.
func poisonWorkspaces(t *testing.T) {
	recycle.Poison = true
	t.Cleanup(func() { recycle.Poison = false })
}

// rowKeys drains rows through Values and returns the rendered rows,
// sorted.
func rowKeys(rows *Rows) ([]string, error) {
	var out []string
	for rows.Next() {
		out = append(out, fmt.Sprint(rows.Values()))
	}
	err := rows.Err()
	rows.Close()
	slices.Sort(out)
	return out, err
}

// TestStmtConcurrentPoisonedWorkspaces runs one prepared statement from
// several goroutines at once, streamed and materialized, with returned
// workspace memory poisoned: every execution returns the single-run
// result, and under -race no two executions share a workspace.
func TestStmtConcurrentPoisonedWorkspaces(t *testing.T) {
	poisonWorkspaces(t)
	db := concurrentDB(t, 60)
	stmt, err := db.Prepare(`[<s.sname, d.dnr, e.dnr> OF EACH s IN staff, EACH d IN duties, EACH e IN duties:
		(s.sstatus = professor) AND (s.snr = d.dsnr) AND (s.snr = e.dsnr)]`, WithCostBased())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rows, err := stmt.Rows(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rowKeys(rows)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 6
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range 8 {
				if r%2 == 1 {
					res, err := stmt.Query(ctx)
					if err == nil && res.Len() != len(want) {
						err = fmt.Errorf("materialized %d rows, want %d", res.Len(), len(want))
					}
					if err != nil {
						errs[g] = err
						return
					}
					continue
				}
				rows, err := stmt.Rows(ctx)
				if err != nil {
					errs[g] = err
					return
				}
				got, err := rowKeys(rows)
				if err == nil && !slices.Equal(got, want) {
					err = fmt.Errorf("goroutine %d rep %d: streamed %d rows unlike the single run's %d", g, r, len(got), len(want))
				}
				if err != nil {
					errs[g] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestQueryRowsStaleRetryPoisoned: the one-shot stale retry seeds the
// re-executed cursor from the old one before the old one closes and
// returns its workspace. With returned memory poisoned, a stream whose
// retry happens after 300 of 600 rows — more than one construction
// chunk in — yields each surviving row once and never the deleted one.
func TestQueryRowsStaleRetryPoisoned(t *testing.T) {
	poisonWorkspaces(t)
	db := valuesDB(t)
	rows, err := db.QueryRows(context.Background(), valuesQuery)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	seen := map[string]bool{}
	for len(seen) < 300 && rows.Next() {
		seen[fmt.Sprint(rows.Values())] = true
	}
	// Delete a row the cursor has not yielded, invalidating its
	// reference mid-stream.
	victim, retries := "", mStaleRetries.Load()
	for n := range 150 {
		for i, s := range []string{"student", "technician", "assistant", "professor"} {
			k := fmt.Sprint([]any{int64(n), s, (i*150+n)%3 == 0})
			if victim == "" && !seen[k] {
				victim = k
				if err := db.Exec(fmt.Sprintf("r :- [<%d, %s>];", n, s)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if victim == "" {
		t.Fatal("every row was yielded before the delete")
	}
	for rows.Next() {
		k := fmt.Sprint(rows.Values())
		if seen[k] {
			t.Fatalf("row %s yielded twice across the retry", k)
		}
		seen[k] = true
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("the retry should absorb the invalidation, got %v", err)
	}
	if seen[victim] {
		t.Fatalf("deleted row %s yielded", victim)
	}
	if mStaleRetries.Load() == retries {
		t.Fatal("the delete did not make the stream retry")
	}
	if len(seen) != 599 {
		t.Fatalf("yielded %d rows, want 599", len(seen))
	}
}
