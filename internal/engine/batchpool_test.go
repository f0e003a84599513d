package engine

import (
	"context"
	"slices"
	"testing"

	"pascalr/internal/colbatch"
	"pascalr/internal/relation"
	"pascalr/internal/schema"
	"pascalr/internal/stats"
	"pascalr/internal/value"
)

// collectTask records every column value of every scanned row.
type collectTask struct {
	cols []int
	rows [][]value.Value
}

func (t *collectTask) batchCols() []int { return t.cols }
func (t *collectTask) processBatch(b *colbatch.Batch, sel *colbatch.Bitmap, _ *stats.Counters) (int, error) {
	sel.Do(func(i int) bool {
		row := make([]value.Value, len(t.cols))
		for k, c := range t.cols {
			row[k] = b.ColVal(c, i)
		}
		t.rows = append(t.rows, row)
		return true
	})
	return sel.Count(), nil
}
func (t *collectTask) finish() error    { return nil }
func (t *collectTask) describe() string { return "collect" }

// scanAll scans every column of r through the collection drive of a
// plan whose workspace is ws and returns the rows a collecting task
// saw.
func scanAll(t *testing.T, ws *workspace, r *relation.Relation) [][]value.Value {
	t.Helper()
	task := &collectTask{}
	for c := range r.Schema().Cols {
		task.cols = append(task.cols, c)
	}
	job := &scanJob{rel: r, batchCols: task.cols, tasks: []scanTask{task}}
	if err := (&plan{ws: ws}).scanBatches(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	return task.rows
}

func batchPoolDB(t *testing.T) (wide, wideStr *relation.Relation) {
	db := relation.NewDB()
	n := schema.IntType("n", 0, 1000)
	s := schema.StringType("s", 8)
	wide = db.MustCreate(schema.MustRelSchema("wide", []schema.Column{{Name: "a", Type: n}, {Name: "b", Type: n}, {Name: "c", Type: n}}, []string{"a"}))
	wideStr = db.MustCreate(schema.MustRelSchema("widestr", []schema.Column{{Name: "a", Type: n}, {Name: "s", Type: s}, {Name: "c", Type: n}}, []string{"a"}))
	for i := int64(0); i < 100; i++ {
		for r, tup := range map[*relation.Relation][]value.Value{
			wide:    {value.Int(i), value.Int(i * 2), value.Int(i * 3)},
			wideStr: {value.Int(i), value.String_(string(rune('a' + i%26))), value.Int(i * 3)},
		} {
			if _, err := r.Insert(tup); err != nil {
				t.Fatal(err)
			}
		}
	}
	return wide, wideStr
}

// TestPooledBatchIntThenString: a workspace batch that served a scan of
// int columns fills a string column at the same position in the next
// scan, and both scans read back what was inserted.
func TestPooledBatchIntThenString(t *testing.T) {
	wide, wideStr := batchPoolDB(t)
	ws := &workspace{}
	for round := 0; round < 3; round++ {
		for _, r := range []*relation.Relation{wide, wideStr} {
			got := scanAll(t, ws, r)
			want := r.Tuples()
			if !slices.EqualFunc(got, want, func(a, b []value.Value) bool { return slices.EqualFunc(a, b, value.Equal) }) {
				t.Fatalf("round %d, %s: scanned %v, want %v", round, r.Name(), got, want)
			}
		}
	}
}
