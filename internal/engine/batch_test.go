package engine

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"pascalr/internal/baseline"
	"pascalr/internal/calculus"
	"pascalr/internal/relation"
	"pascalr/internal/stats"
	"pascalr/internal/value"
	"pascalr/internal/workload"
)

// setBatchSize shrinks the batch capacity for the duration of a test so
// batch-boundary and tail-bitmap edge cases get exercised with small
// relations, restoring the default afterwards.
func setBatchSize(t *testing.T, n int) {
	t.Helper()
	old := batchSize
	batchSize = n
	t.Cleanup(func() { batchSize = old })
}

// defaultBatchSize is the production batch capacity, captured before
// any test shrinks batchSize.
var defaultBatchSize = batchSize

// evalChecked runs one selection at the test's (shrunk) batch size and
// asserts the rows the tuple-substitution baseline produces, and the
// counter fingerprint of the same run at the default batch size: what
// the engine counts must not depend on where batches break. It returns
// the engine's result.
func evalChecked(t *testing.T, db *relation.DB, sel *calculus.Selection, opts Options) [][]value.Value {
	t.Helper()
	checked, info, err := calculus.Check(sel, db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	want, err := baseline.Eval(checked, info, db)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	ctx := context.Background()
	st := &stats.Counters{}
	got, err := New(db, st).Eval(ctx, checked, info, opts)
	if err != nil {
		t.Fatal(err)
	}
	if gk, wk := resultKey(got), resultKey(want); gk != wk {
		t.Fatalf("batch size %d: result (%d rows) != baseline (%d rows)", batchSize, len(got), len(want))
	}
	small := batchSize
	batchSize = defaultBatchSize
	stWhole := &stats.Counters{}
	_, err = New(db, stWhole).Eval(ctx, checked, info, opts)
	batchSize = small
	if err != nil {
		t.Fatal(err)
	}
	if sf, wf := st.Fingerprint(), stWhole.Fingerprint(); sf != wf {
		t.Fatalf("counter fingerprints depend on the batch size\nsize %d: %s\nsize %d: %s", small, sf, defaultBatchSize, wf)
	}
	return got
}

// empnoSelection selects employee names by a single comparison on the
// unique employee number — the shape whose selection vector density is
// directly controlled by op and the constant.
func empnoSelection(op value.CmpOp, n int64) *calculus.Selection {
	return &calculus.Selection{
		Proj: []calculus.Field{{Var: "e", Col: "ename"}},
		Free: []calculus.Decl{{Var: "e", Range: &calculus.RangeExpr{Rel: "employees"}}},
		Pred: &calculus.Cmp{L: calculus.Field{Var: "e", Col: "enr"}, Op: op, R: calculus.Const{Val: value.Int(n)}},
	}
}

// TestBatchSelectionVectorDensityExtremes pins the all-one and all-zero
// selection vector cases: a predicate every row passes, one no row
// passes, and a one-row needle — across batch sizes that land the
// relation on, under, and over word and batch boundaries.
func TestBatchSelectionVectorDensityExtremes(t *testing.T) {
	db := workload.MustUniversity(workload.DefaultConfig(70)) // 70 rows: crosses one 64-bit word
	for _, bs := range []int{1, 3, 64, 70, 1024} {
		bs := bs
		t.Run(fmt.Sprintf("bs%d", bs), func(t *testing.T) {
			setBatchSize(t, bs)
			allOne := evalChecked(t, db, empnoSelection(value.OpGe, 0), Options{Strategies: AllStrategies})
			if len(allOne) != db.MustRelation("employees").Len() {
				t.Fatalf("all-one selection kept %d of %d rows", len(allOne), db.MustRelation("employees").Len())
			}
			allZero := evalChecked(t, db, empnoSelection(value.OpLt, 0), Options{Strategies: AllStrategies})
			if len(allZero) != 0 {
				t.Fatalf("all-zero selection kept %d rows", len(allZero))
			}
			needle := evalChecked(t, db, empnoSelection(value.OpEq, 1), Options{Strategies: AllStrategies})
			if len(needle) != 1 {
				t.Fatalf("needle selection kept %d rows, want 1", len(needle))
			}
		})
	}
}

// TestBatchEmptyRelations runs against empty base relations: zero
// batches must flow, and results must stay the baseline's.
func TestBatchEmptyRelations(t *testing.T) {
	setBatchSize(t, 7)
	db := relation.NewDB()
	if err := workload.DefineSchema(db, workload.DefaultConfig(10)); err != nil {
		t.Fatal(err)
	}
	res := evalChecked(t, db, empnoSelection(value.OpGe, 0), Options{Strategies: AllStrategies})
	if len(res) != 0 {
		t.Fatalf("empty relation produced %d rows", len(res))
	}
	res = evalChecked(t, db, workload.SampleSelection(), Options{Strategies: AllStrategies})
	if len(res) != 0 {
		t.Fatalf("empty university produced %d rows", len(res))
	}
}

// TestBatchBoundaryMatrix sweeps the paper's sample queries across odd
// batch sizes (including sizes that split every quantified scan at
// non-multiple-of-64 offsets) and every strategy rung — rows and
// counters under boundary stress.
func TestBatchBoundaryMatrix(t *testing.T) {
	db := workload.MustUniversity(workload.DefaultConfig(17))
	sels := []*calculus.Selection{
		workload.SampleSelection(),
		workload.SubexprSelection(),
		workload.DisjunctiveSelection(),
		workload.JoinHeavySelection(),
	}
	for _, bs := range []int{3, 65} {
		for _, sel := range sels {
			for _, strat := range []Strategy{0, S1 | S2, AllStrategies} {
				setBatchSize(t, bs)
				evalChecked(t, db, sel, Options{Strategies: strat})
			}
		}
	}
}

// TestBatchCursorStreamingDedup streams a compiled plan's rows through
// the cursor with a batch size that fractures every scan, checking the
// streamed multiset (including construction-phase dedup) against the
// baseline's result.
func TestBatchCursorStreamingDedup(t *testing.T) {
	setBatchSize(t, 5)
	db := workload.MustUniversity(workload.DefaultConfig(40))
	checked, info, err := calculus.Check(workload.SampleSelection(), db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	plan, err := New(db, nil).Compile(checked, info, Options{Strategies: AllStrategies})
	if err != nil {
		t.Fatal(err)
	}
	cur, err := plan.Rows(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	seen := map[string]bool{}
	for cur.Next() {
		k := value.EncodeKey(cur.Row())
		if seen[k] {
			t.Fatalf("cursor yielded duplicate row %q across batch boundaries", k)
		}
		seen[k] = true
		keys = append(keys, k)
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	cur.Close()
	sort.Strings(keys)

	base, err := baseline.Eval(checked, info, db)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(keys, "|"), resultKey(base); got != want {
		t.Fatalf("streamed rows != baseline result\nstreamed: %s\nbaseline: %s", got, want)
	}
}

// TestStrategy4ScansPushProjection: derived strategy-4 atoms and the
// value-list feed read only the columns they declare, so every scan of
// sample-2.1 under all strategies gets a column mask, and timetable's
// holds just the two join columns — not tday, ttime or troom, which no
// task reads. The result still matches the baseline across batch
// boundaries.
func TestStrategy4ScansPushProjection(t *testing.T) {
	db := workload.MustUniversity(workload.DefaultConfig(40))
	checked, _, err := calculus.Check(workload.SampleSelection(), db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Strategies: AllStrategies}
	x := prepareTemplate(t, db, checked, opts)
	p, err := buildPlan(x, db, &stats.Counters{}, opts.Strategies, nil, &workspace{})
	if err != nil {
		t.Fatal(err)
	}
	sch := db.MustRelation("timetable").Schema()
	var want []int
	for _, col := range []string{"tenr", "tcnr"} {
		ci, _ := sch.ColIndex(col)
		want = append(want, ci)
	}
	slices.Sort(want)
	scanned := false
	for _, job := range p.jobs {
		if job.batchCols == nil {
			t.Errorf("scan of %s (vars %v) has no column mask", job.rel.Name(), job.vars)
		}
		if job.rel.Name() == "timetable" {
			scanned = true
			if !slices.Equal(job.batchCols, want) {
				t.Errorf("timetable scan (vars %v) materializes columns %v, want %v", job.vars, job.batchCols, want)
			}
		}
	}
	if !scanned {
		t.Fatal("sample-2.1 planned no timetable scan")
	}
	setBatchSize(t, 7)
	evalChecked(t, db, workload.SampleSelection(), opts)
}
