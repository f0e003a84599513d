package engine

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"pascalr/internal/calculus"
	"pascalr/internal/parser"
	"pascalr/internal/workload"
)

// paperMix is the paper's six Figure 1 query shapes, as the benchmark's
// paper_mix_mem workload runs them.
var paperMix = []string{
	`[<e.ename> OF EACH e IN employees: (e.estatus = professor) AND
	 (ALL p IN papers ((p.pyear <> 1977) OR (e.enr <> p.penr)) OR
	  SOME c IN courses ((c.clevel <= sophomore) AND SOME t IN timetable ((c.cnr = t.tcnr) AND (e.enr = t.tenr))))]`,
	`[<c.cnr, t.tenr, t.tday> OF EACH c IN courses, EACH t IN timetable: (c.clevel <= sophomore) AND (c.cnr = t.tcnr)]`,
	`[<e.ename, c.cnr> OF EACH e IN employees, EACH c IN courses, EACH t IN timetable:
	 (e.estatus = professor) AND (c.clevel <= sophomore) AND (e.enr = t.tenr) AND (c.cnr = t.tcnr)]`,
	`[<e.ename> OF EACH e IN employees: SOME c IN courses ((c.clevel <= sophomore) AND SOME t IN timetable ((c.cnr = t.tcnr) AND (e.enr = t.tenr)))]`,
	`[<e.ename> OF EACH e IN employees: SOME t IN timetable (((t.tday = monday) OR (t.tday = friday)) AND (e.enr = t.tenr))]`,
	`[<e.ename> OF EACH e IN employees: (e.estatus = professor) AND ALL p IN papers ((p.pyear <> 1977) OR (e.enr <> p.penr))]`,
}

// steadyStateBytes bounds what one prepared execution of a paperMix
// shape allocates once its workspace has warmed up: the plan, its
// predicates and closures, the template copy — nothing that grows with
// the relations. At the scale below, building the collection,
// combination and construction structures afresh allocated about
// 58 KiB per execution, and one fresh scan batch of employees is
// about 50 KiB.
const steadyStateBytes = 16 << 10

// TestWorkspaceSteadyStateBytes: after warm-up, prepared executions of
// the paperMix shapes under both planners, run round robin — so scans
// alternate between relations of three, four and five columns — stay
// under steadyStateBytes per execution. The collector is off while the
// executions are measured, so no collection empties the workspace pool.
func TestWorkspaceSteadyStateBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	db, err := workload.University(workload.DefaultConfig(300))
	if err != nil {
		t.Fatal(err)
	}
	eng := New(db, nil)
	var plans []*Plan
	for _, src := range paperMix {
		sel, err := parser.ParseSelection(src)
		if err != nil {
			t.Fatal(err)
		}
		checked, info, err := calculus.Check(sel, db.Catalog())
		if err != nil {
			t.Fatal(err)
		}
		for _, cost := range []bool{false, true} {
			p, err := eng.Compile(checked, info, Options{Strategies: AllStrategies, CostBased: cost})
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, p)
		}
	}
	ctx := context.Background()
	round := func() {
		for _, p := range plans {
			cur, err := p.Rows(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for cur.Next() {
			}
			if err := cur.Err(); err != nil {
				t.Fatal(err)
			}
			cur.Close()
		}
	}
	for range 3 {
		round()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const rounds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		round()
	}
	runtime.ReadMemStats(&after)
	perExec := float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds*len(plans))
	t.Logf("%.0f bytes per execution", perExec)
	if perExec > steadyStateBytes {
		t.Fatalf("a warmed-up execution allocates %.0f bytes, want at most %d", perExec, steadyStateBytes)
	}
}

// TestWorkspaceAfterLargeExecution: after one round of the paperMix
// shapes over a large database, rounds over a small one run on the same
// workspace as fast, and allocate as little, as before it, once the
// workspace has trimmed (every recycle.TrimEvery executions). A
// workspace that kept the large round's memory would clear its tables
// on every small execution and hold them for good.
func TestWorkspaceAfterLargeExecution(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	compile := func(scale int) []*Plan {
		db, err := workload.University(workload.DefaultConfig(scale))
		if err != nil {
			t.Fatal(err)
		}
		eng := New(db, nil)
		var plans []*Plan
		for _, src := range paperMix {
			sel, err := parser.ParseSelection(src)
			if err != nil {
				t.Fatal(err)
			}
			checked, info, err := calculus.Check(sel, db.Catalog())
			if err != nil {
				t.Fatal(err)
			}
			p, err := eng.Compile(checked, info, Options{Strategies: AllStrategies})
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, p)
		}
		return plans
	}
	small, large := compile(40), compile(20000)
	// One workspace, never pooled: the cursor is closed without it and
	// the round ends each execution itself.
	ws := new(workspace)
	ctx := context.Background()
	round := func(plans []*Plan) time.Duration {
		start := time.Now()
		for _, p := range plans {
			cur, _, err := p.execute(ctx, nil, false, ws)
			if err != nil {
				t.Fatal(err)
			}
			for cur.Next() {
			}
			if err := cur.Err(); err != nil {
				t.Fatal(err)
			}
			cur.ws = nil
			cur.Close()
			ws.finish()
		}
		return time.Since(start)
	}
	fastest := func() time.Duration {
		best := round(small)
		for range 30 {
			best = min(best, round(small))
		}
		return best
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	round(small)
	before := fastest()
	round(large)
	round(small)
	round(small)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	after := fastest()
	runtime.ReadMemStats(&m1)
	perExec := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(31*len(small))
	t.Logf("small round: %v before the large one, %v after; %.0f bytes per execution after", before, after, perExec)
	if perExec > steadyStateBytes {
		t.Errorf("after a large execution a small one allocates %.0f bytes, want at most %d", perExec, steadyStateBytes)
	}
	if after > 2*before {
		t.Errorf("a small round takes %v after a large one, %v before it", after, before)
	}
}
