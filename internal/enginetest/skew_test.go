package enginetest

import (
	"context"
	"math"
	"testing"

	"pascalr/internal/calculus"
	"pascalr/internal/engine"
	"pascalr/internal/relation"
	"pascalr/internal/stats"
	"pascalr/internal/value"
	"pascalr/internal/workload"
)

// actualFrac scans a relation and returns the fraction of tuples whose
// col satisfies "col op c".
func actualFrac(db *relation.DB, rel, col string, op value.CmpOp, c value.Value) float64 {
	r := db.MustRelation(rel)
	ci, _ := r.Schema().ColIndex(col)
	n, hits := 0, 0
	r.Scan(nil, func(_ value.Value, tuple []value.Value) bool {
		n++
		cmp, err := value.Compare(tuple[ci], c)
		if err == nil && op.Holds(cmp) {
			hits++
		}
		return true
	})
	if n == 0 {
		return 0
	}
	return float64(hits) / float64(n)
}

func relErr(est, actual float64) float64 {
	if actual == 0 {
		return math.Abs(est)
	}
	return math.Abs(est-actual) / actual
}

// TestSkewedSelectivityError pins the estimate quality on the
// heavy-hitter workload: the histogram estimator's relative error stays
// within a small bound where the uniform estimator's blows up — on
// equality and on range predicates, before and after a deletion wave.
func TestSkewedSelectivityError(t *testing.T) {
	db := workload.MustSkewedJoin(workload.DefaultSkewedJoinConfig(1500))
	check := func(phase string) {
		est := db.Estimator()
		uni := est.Uniform()
		for _, tc := range []struct {
			name string
			col  string
			op   value.CmpOp
			c    value.Value
		}{
			{"hot = 0 (heavy hitter)", "hot", value.OpEq, value.Int(0)},
			{"hot <= 0 (range at heavy hitter)", "hot", value.OpLe, value.Int(0)},
			{"hot <> 0", "hot", value.OpNe, value.Int(0)},
		} {
			actual := actualFrac(db, "facts", tc.col, tc.op, tc.c)
			h := est.SelectivityConst("facts", tc.col, tc.op, tc.c)
			u := uni.SelectivityConst("facts", tc.col, tc.op, tc.c)
			he, ue := relErr(h, actual), relErr(u, actual)
			if he > 0.15 {
				t.Errorf("%s %s: histogram estimate %.3f vs actual %.3f (rel err %.2f > 0.15)",
					phase, tc.name, h, actual, he)
			}
			if ue < 3*he+0.3 {
				t.Errorf("%s %s: uniform estimate %.3f unexpectedly good (err %.2f) vs histogram err %.2f — workload no longer skewed?",
					phase, tc.name, u, ue, he)
			}
		}
		// The bucketed join column: both models should be in the right
		// ballpark on an actually-uniform column — histograms must not
		// make non-skewed estimates worse.
		actual := actualFrac(db, "facts", "v", value.OpLt, value.Int(100))
		h := est.SelectivityConst("facts", "v", value.OpLt, value.Int(100))
		if relErr(h, actual) > 0.5 {
			t.Errorf("%s v < 100: bucketed estimate %.3f vs actual %.3f", phase, h, actual)
		}
	}
	check("initial")
	// Deletion wave: remove a third of the facts and re-check — the
	// statistics are maintained incrementally, no Analyze call.
	facts := db.MustRelation("facts")
	for i := 0; i < 500; i++ {
		facts.Delete([]value.Value{value.Int(int64(i * 3))})
	}
	check("after deletes")
}

// TestSkewedDifferentialMatrix runs the heavy-hitter join through the
// full strategy × planner matrix: whatever the estimates say, every
// plan must produce the baseline's relation.
func TestSkewedDifferentialMatrix(t *testing.T) {
	db := workload.MustSkewedJoin(workload.DefaultSkewedJoinConfig(600))
	sel, info, err := calculus.Check(workload.SkewedJoinSelection(), db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	if n := RunSelection(t, "skewjoin", db, sel, info); n == 0 {
		t.Fatal("skewed join produced no rows; workload mis-sized")
	}
}

// TestHistogramBeatsUniformPlan is the plan-quality claim itself: on
// the heavy-hitter join the histogram-cost plan issues fewer index
// probes (it probes with the genuinely smaller side) than the
// uniform-cost plan, at an identical result.
func TestHistogramBeatsUniformPlan(t *testing.T) {
	// Scale matters: the histogram plan materializes the bulky side's
	// single list, so its ref-tuple win only dominates once the
	// indirect-join size (∝ facts·dims/distinct) outgrows the facts
	// count. 2500 facts is comfortably past the crossover.
	db := workload.MustSkewedJoin(workload.DefaultSkewedJoinConfig(2500))
	sel, info, err := calculus.Check(workload.SkewedJoinSelection(), db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	est := db.Estimator()
	run := func(e *stats.Estimator) (*stats.Counters, string) {
		st := &stats.Counters{}
		res, err := engine.New(db, st).Eval(context.Background(), sel, info,
			engine.Options{Strategies: engine.S1 | engine.S2, CostBased: true, Estimator: e})
		if err != nil {
			t.Fatal(err)
		}
		return st, RelKey(res)
	}
	stHist, keyHist := run(est)
	stUni, keyUni := run(est.Uniform())
	if keyHist != keyUni {
		t.Fatal("histogram and uniform plans disagree on the result")
	}
	if stHist.IndexProbes >= stUni.IndexProbes {
		t.Errorf("histogram plan probes = %d, want < uniform plan probes = %d",
			stHist.IndexProbes, stUni.IndexProbes)
	}
	if stHist.RefTuples > stUni.RefTuples {
		t.Errorf("histogram plan ref tuples = %d, want <= uniform %d",
			stHist.RefTuples, stUni.RefTuples)
	}
}
