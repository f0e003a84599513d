package pascalr

// One benchmark per experiment of internal/experiments (E1–E15, printed
// by `go run ./cmd/experiments`). The benchmarks drive the same code
// paths as cmd/experiments but at fixed small scales so `go test
// -bench=.` stays fast; use cmd/experiments for scale sweeps.

import (
	"context"
	"fmt"
	"testing"

	"pascalr/internal/baseline"
	"pascalr/internal/calculus"
	"pascalr/internal/engine"
	"pascalr/internal/normalize"
	"pascalr/internal/obs"
	"pascalr/internal/optimizer"
	"pascalr/internal/relation"
	"pascalr/internal/stats"
	"pascalr/internal/value"
	"pascalr/internal/workload"
)

const benchScale = 25

func benchDB(b *testing.B) (*relation.DB, *calculus.Selection, *calculus.Info) {
	b.Helper()
	db := workload.MustUniversity(workload.DefaultConfig(benchScale))
	sel, info, err := calculus.Check(workload.SampleSelection(), db.Catalog())
	if err != nil {
		b.Fatal(err)
	}
	return db, sel, info
}

// BenchmarkE1_Load regenerates the Figure 1 database (experiment E1).
func BenchmarkE1_Load(b *testing.B) {
	for i := 0; i < b.N; i++ {
		workload.MustUniversity(workload.DefaultConfig(benchScale))
	}
}

// BenchmarkE2_Collection measures the collection phase structures of the
// sample query (experiment E2): scans, single lists, indexes, indirect
// joins under strategy 1; the combination phase is excluded by running
// with all logical optimizations so it stays negligible.
func BenchmarkE2_Collection(b *testing.B) {
	db, sel, info := benchDB(b)
	eng := engine.New(db, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Eval(context.Background(), sel, info, engine.Options{Strategies: engine.AllStrategies}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3_Normalize standardizes Example 2.1 into Example 2.2
// (experiment E3).
func BenchmarkE3_Normalize(b *testing.B) {
	_, sel, _ := benchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := normalize.Standardize(sel, normalize.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4_Adaptation evaluates the sample query against an empty
// papers relation, exercising the Lemma 1 adaptation (experiment E4).
func BenchmarkE4_Adaptation(b *testing.B) {
	db, sel, info := benchDB(b)
	if err := db.MustRelation("papers").Assign(nil); err != nil {
		b.Fatal(err)
	}
	eng := engine.New(db, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Eval(context.Background(), sel, info, engine.Options{Strategies: engine.AllStrategies}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5_RefIndex measures selected-variable lookups rel[keyval]
// (experiment E5).
func BenchmarkE5_RefIndex(b *testing.B) {
	db, _, _ := benchDB(b)
	employees := db.MustRelation("employees")
	key := []value.Value{value.Int(1)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key[0] = value.Int(int64(i%benchScale) + 1)
		employees.Lookup(key)
	}
}

// BenchmarkE6_Phases runs the Example 3.2 fragment through all three
// phases (experiment E6).
func BenchmarkE6_Phases(b *testing.B) {
	db := workload.MustUniversity(workload.DefaultConfig(benchScale))
	sel, info, err := calculus.Check(workload.SubexprSelection(), db.Catalog())
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(db, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Eval(context.Background(), sel, info, engine.Options{Strategies: engine.S1}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStrategy runs the sample query under one strategy set.
func benchStrategy(b *testing.B, strat engine.Strategy) {
	b.Helper()
	db, sel, info := benchDB(b)
	eng := engine.New(db, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Eval(context.Background(), sel, info, engine.Options{Strategies: strat}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7_S1 compares scan scheduling (experiment E7).
func BenchmarkE7_S1(b *testing.B) {
	b.Run("S0", func(b *testing.B) { benchStrategy(b, 0) })
	b.Run("S1", func(b *testing.B) { benchStrategy(b, engine.S1) })
}

// BenchmarkE8_S2 compares unrestricted and restricted indirect joins
// (experiment E8).
func BenchmarkE8_S2(b *testing.B) {
	b.Run("S1", func(b *testing.B) { benchStrategy(b, engine.S1) })
	b.Run("S1+S2", func(b *testing.B) { benchStrategy(b, engine.S1|engine.S2) })
}

// BenchmarkE9_S3 compares evaluation with and without extended range
// expressions (experiment E9).
func BenchmarkE9_S3(b *testing.B) {
	b.Run("S1+S2", func(b *testing.B) { benchStrategy(b, engine.S1|engine.S2) })
	b.Run("S1+S2+S3", func(b *testing.B) { benchStrategy(b, engine.S1|engine.S2|engine.S3) })
}

// BenchmarkE10_S4 compares evaluation with and without collection-phase
// quantifier evaluation (experiment E10).
func BenchmarkE10_S4(b *testing.B) {
	b.Run("S1+S2+S3", func(b *testing.B) { benchStrategy(b, engine.S1|engine.S2|engine.S3) })
	b.Run("All", func(b *testing.B) { benchStrategy(b, engine.AllStrategies) })
}

// BenchmarkE11_Ladder is the headline comparison (experiment E11):
// naive tuple substitution against the phase algorithm under the
// strategy ladder.
func BenchmarkE11_Ladder(b *testing.B) {
	b.Run("naive", func(b *testing.B) {
		db, sel, info := benchDB(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := baseline.Eval(sel, info, db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("S0", func(b *testing.B) { benchStrategy(b, 0) })
	b.Run("S1", func(b *testing.B) { benchStrategy(b, engine.S1) })
	b.Run("S1+S2", func(b *testing.B) { benchStrategy(b, engine.S1|engine.S2) })
	b.Run("S1+S2+S3", func(b *testing.B) { benchStrategy(b, engine.S1|engine.S2|engine.S3) })
	b.Run("All", func(b *testing.B) { benchStrategy(b, engine.AllStrategies) })
}

// BenchmarkE12_ValueLists exercises the section 4.4 refinements: each
// operator/quantifier pair over a value list (experiment E12).
func BenchmarkE12_ValueLists(b *testing.B) {
	db := New()
	db.MustExec(`
TYPE dom = 0..1073741824;
VAR outer : RELATION <k> OF RECORD k : dom; v : dom END;
    inner : RELATION <k> OF RECORD k : dom; v : dom END;
`)
	var inserts string
	for i := 0; i < 300; i++ {
		inserts += fmt.Sprintf("outer :+ [<%d, %d>]; inner :+ [<%d, %d>];\n", i, i%97, i, i%89)
	}
	db.MustExec(inserts)
	for _, c := range []struct{ q, op string }{
		{"SOME", "<"}, {"ALL", "<"}, {"ALL", "="}, {"SOME", "<>"}, {"SOME", "="}, {"ALL", "<>"},
	} {
		src := fmt.Sprintf(`[<o.k> OF EACH o IN outer: %s i IN inner (o.v %s i.v)]`, c.q, c.op)
		b.Run(c.q+c.op, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE14_CNF compares evaluation of the disjunctive query with
// and without the CNF range extension (experiment E14).
func BenchmarkE14_CNF(b *testing.B) {
	run := func(b *testing.B, strat engine.Strategy) {
		db := workload.MustUniversity(workload.DefaultConfig(benchScale))
		sel, info, err := calculus.Check(workload.DisjunctiveSelection(), db.Catalog())
		if err != nil {
			b.Fatal(err)
		}
		eng := engine.New(db, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Eval(context.Background(), sel, info, engine.Options{Strategies: strat}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("S1+S2+S3", func(b *testing.B) { run(b, engine.S1|engine.S2|engine.S3) })
	b.Run("S1+S2+S3+SCNF", func(b *testing.B) { run(b, engine.S1|engine.S2|engine.S3|engine.SCNF) })
}

// neJoinSelection pairs professors with the timetable entries of OTHER
// employees: the <> probe scans the whole indexed side per probing
// tuple, so the comparison count is |probe side| × |index side| and the
// planner's choice of probe side dominates the cost.
func neJoinSelection() *calculus.Selection {
	return &calculus.Selection{
		Proj: []calculus.Field{{Var: "e", Col: "ename"}, {Var: "t", Col: "tcnr"}},
		Free: []calculus.Decl{
			{Var: "e", Range: &calculus.RangeExpr{Rel: "employees"}},
			{Var: "t", Range: &calculus.RangeExpr{Rel: "timetable"}},
		},
		Pred: calculus.NewAnd(
			&calculus.Cmp{L: calculus.Field{Var: "e", Col: "estatus"}, Op: value.OpEq, R: calculus.Label{Name: "professor"}},
			&calculus.Cmp{L: calculus.Field{Var: "e", Col: "enr"}, Op: value.OpNe, R: calculus.Field{Var: "t", Col: "tenr"}},
		),
	}
}

// BenchmarkCostBasedJoin compares the static and the cost-based
// combination phase on the join-heavy queries, reporting the
// plan-quality counters (index probes, comparisons, reference tuples)
// next to wall-clock time.
func BenchmarkCostBasedJoin(b *testing.B) {
	queries := []struct {
		name string
		sel  *calculus.Selection
	}{
		{"eq3way", workload.JoinHeavySelection()},
		{"ne", neJoinSelection()},
	}
	for _, q := range queries {
		for _, mode := range []struct {
			name      string
			costBased bool
		}{{"static", false}, {"cost", true}} {
			b.Run(q.name+"/"+mode.name, func(b *testing.B) {
				cfg := workload.DefaultConfig(2 * benchScale)
				cfg.ProfFrac = 0.1
				cfg.SophFrac = 0.1
				db := workload.MustUniversity(cfg)
				sel, info, err := calculus.Check(q.sel, db.Catalog())
				if err != nil {
					b.Fatal(err)
				}
				est := db.Analyze()
				st := &stats.Counters{}
				eng := engine.New(db, st)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st.Reset()
					opts := engine.Options{Strategies: engine.S1 | engine.S2, CostBased: mode.costBased}
					if mode.costBased {
						opts.Estimator = est
					}
					if _, err := eng.Eval(context.Background(), sel, info, opts); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(st.IndexProbes), "probes/op")
				b.ReportMetric(float64(st.Comparisons), "cmps/op")
				b.ReportMetric(float64(st.RefTuples), "reftuples/op")
			})
		}
	}
}

// BenchmarkHistogramPlanning compares the uniform (System R) and
// histogram estimators on the heavy-hitter join workload: the uniform
// model believes the filtered facts side is small (1/distinct) when it
// actually keeps ~90% of the rows, so it probes with the wrong side;
// the histogram plan probes with the genuinely smaller dims side. The
// probes/op and reftuples/op metrics are the plan-quality record CI
// tracks (see .github/workflows/ci.yml, BENCH_histogram_planning.json).
// The mutate-replan leg re-executes a prepared plan after a mutation
// every iteration — the path that used to re-Analyze (rescan every
// relation) per version change and now reads the incrementally
// maintained statistics: DB.Analyze is on no hot path here.
func BenchmarkHistogramPlanning(b *testing.B) {
	mk := func(b *testing.B) (*relation.DB, *calculus.Selection, *calculus.Info) {
		b.Helper()
		db := workload.MustSkewedJoin(workload.DefaultSkewedJoinConfig(2500))
		sel, info, err := calculus.Check(workload.SkewedJoinSelection(), db.Catalog())
		if err != nil {
			b.Fatal(err)
		}
		return db, sel, info
	}
	db, sel, info := mk(b)
	est := db.Estimator()
	for _, mode := range []struct {
		name string
		est  *stats.Estimator
	}{{"uniform", est.Uniform()}, {"histogram", est}} {
		b.Run(mode.name, func(b *testing.B) {
			st := &stats.Counters{}
			eng := engine.New(db, st)
			plan, err := eng.Compile(sel, info, engine.Options{
				Strategies: engine.S1 | engine.S2, CostBased: true, Estimator: mode.est,
			})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.Reset()
				if _, err := plan.Eval(ctx); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.IndexProbes), "probes/op")
			b.ReportMetric(float64(st.RefTuples), "reftuples/op")
			b.ReportMetric(float64(st.Comparisons), "cmps/op")
		})
	}
	b.Run("mutate-replan", func(b *testing.B) {
		db, sel, info := mk(b)
		facts := db.MustRelation("facts")
		eng := engine.New(db, nil)
		// No explicit estimator: the plan derives statistics itself and
		// refreshes them on every version change.
		plan, err := eng.Compile(sel, info, engine.Options{
			Strategies: engine.S1 | engine.S2, CostBased: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := facts.Insert([]value.Value{
				value.Int(int64(1<<19 + i)), value.Int(0), value.Int(int64(i % 509)),
			}); err != nil {
				b.Fatal(err)
			}
			if _, err := plan.Eval(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParser measures parsing of the full Figure 1 DDL plus the
// sample query.
func BenchmarkParser(b *testing.B) {
	db := New()
	db.MustExec(sampleScript)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(example21); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizerTransforms measures strategies 3 and 4 as pure
// transformations.
func BenchmarkOptimizerTransforms(b *testing.B) {
	_, sel, _ := benchDB(b)
	sf, err := normalize.Standardize(sel, normalize.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("S3_Extract", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			optimizer.ExtractRanges(sf)
		}
	})
	b.Run("S4_Eliminate", func(b *testing.B) {
		extracted, _ := optimizer.ExtractRanges(sf)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x := optimizer.FromStandardForm(extracted)
			optimizer.EliminateQuantifiers(x)
		}
	})
}

// BenchmarkPreparedRepeat measures the compile/execute split on the
// Figure 1 university workload running the paper's Example 2.1 query
// repeatedly: "oneshot" compiles from scratch every iteration
// (WithoutPlanCache), "cached" goes through the one-shot Query path and
// its LRU plan cache, and "prepared" re-executes a single Stmt.
// Prepared and cached executions skip parsing, checking,
// standardization, and logical optimization; the gap between "oneshot"
// and the other two is the amortized compilation cost that CI watches
// for plan-cache regressions.
func BenchmarkPreparedRepeat(b *testing.B) {
	mk := func(b *testing.B) *Database {
		b.Helper()
		db := New()
		db.MustExec(sampleScript)
		return db
	}
	b.Run("oneshot", func(b *testing.B) {
		db := mk(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(example21, WithoutPlanCache()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		db := mk(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(example21); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		db := mk(b)
		stmt, err := db.Prepare(example21)
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := stmt.Query(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The traced leg re-executes the prepared statement with a live
	// span recorder per iteration; the delta against "prepared" is the
	// full cost of recording a span tree.
	b.Run("prepared_traced", func(b *testing.B) {
		db := mk(b)
		stmt, err := db.Prepare(example21)
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr := obs.NewTrace("")
			if _, err := stmt.Query(obs.With(ctx, tr.Root())); err != nil {
				b.Fatal(err)
			}
			tr.Finish()
		}
	})
}

// batchScanSelection is the selective full-scan shape the columnar
// drive targets: the bulkiest relation (timetable, 2n rows) filtered by
// a conjunctive chain of monadic band restrictions — a schedule-window
// query: employees inside nested validity bands, lectures inside
// nested time windows, and finally a narrow employee band whose
// conjunction survives only a handful of rows. The wide bands run at
// nearly full density, so predicate evaluation dominates the scan: one
// word-at-a-time FilterOrdBits pass per predicate over an unboxed
// column the scan materialized once.
func batchScanSelection(n int64) *calculus.Selection {
	band := func(col string, op value.CmpOp, v int64) calculus.Formula {
		return &calculus.Cmp{L: calculus.Field{Var: "t", Col: col}, Op: op, R: calculus.Const{Val: value.Int(v)}}
	}
	lecture := func(k int64) int64 { return 8000900 + k*100000 } // the k-th timetable slot
	return &calculus.Selection{
		Proj: []calculus.Field{{Var: "t", Col: "tcnr"}, {Var: "t", Col: "troom"}},
		Free: []calculus.Decl{{Var: "t", Range: &calculus.RangeExpr{Rel: "timetable"}}},
		Pred: calculus.NewAnd(
			band("tenr", value.OpGe, n/50), // wide bands: ~80-98% pass each
			band("tenr", value.OpLt, n-n/50),
			band("ttime", value.OpGe, lecture(5)),
			band("ttime", value.OpLt, lecture(95)),
			band("tenr", value.OpGe, n/10),
			band("tenr", value.OpLt, n-n/10),
			band("ttime", value.OpGe, lecture(10)),
			band("ttime", value.OpLt, lecture(90)),
			band("tenr", value.OpGe, n/2), // narrow band on the survivors
			band("tenr", value.OpLt, n/2+n/250),
		),
	}
}

// BenchmarkBatchScan runs the selective full scan from a precompiled
// plan: columnar batch fill plus bulk bitmap predicates are the whole
// op. CI records its wall-clock in BENCH_batch_exec.json.
func BenchmarkBatchScan(b *testing.B) {
	db := workload.MustUniversity(workload.DefaultConfig(25000))
	db.Quiesce() // drain the population's statistics rebuilds off the timed region
	sel, info, err := calculus.Check(batchScanSelection(25000), db.Catalog())
	if err != nil {
		b.Fatal(err)
	}
	plan, err := engine.New(db, nil).Compile(sel, info, engine.Options{Strategies: engine.AllStrategies})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Eval(ctx); err != nil {
			b.Fatal(err)
		}
	}
}
