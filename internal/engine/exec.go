package engine

import (
	"context"
	"fmt"
	"strings"

	"pascalr/internal/algebra"
	"pascalr/internal/colbatch"
	"pascalr/internal/collection"
	"pascalr/internal/obs"
	"pascalr/internal/sched"
	"pascalr/internal/stats"
	"pascalr/internal/value"
)

// scanTask consumes the columnar batches of one relation scan. sel
// arrives all-ones over the batch's rows and is the task's to mutate;
// the count processBatch returns is the rows surviving the task's own
// predicate chain (feeding the selection-density metrics). The sink is
// the scanning worker's — per job, or per shard when the scan is split
// — so counting never races; finish runs once per task after the whole
// logical scan (all shards) completed.
type scanTask interface {
	processBatch(b *colbatch.Batch, sel *colbatch.Bitmap, snk *scanSink) (int, error)
	// batchCols reports the column indexes processBatch reads, or
	// all=true for whole-row access; the scan materializes only the
	// union across its tasks.
	batchCols() (cols []int, all bool)
	finish() error
	describe() string
}

// shardableTask is a scanTask whose scan may be split into consecutive
// slot-range shards: shardClone returns a fresh task accumulating into
// shard-local structures, and absorb folds a shard's accumulation back
// into the parent. Absorbing shards in shard order reproduces exactly
// the structures (content and order) a serial scan would have built, so
// a sharded collection phase stays bit-identical to the serial one.
type shardableTask interface {
	scanTask
	shardClone() scanTask
	absorb(shard scanTask) error
}

// rangeTask collects the references of a live variable's range —
// "the collection phase evaluates range expressions". References
// accumulate task-locally and publish into the plan's range-list map at
// finish, under the plan lock: concurrent scans of other variables may
// be reading the map (filtered permanent-index probes) at that moment.
type rangeTask struct {
	p     *plan
	v     string
	preds []batchPred // the range filter, if extended
	refs  []value.Value
}

func (t *rangeTask) batchCols() ([]int, bool) { return unionPredCols(t.preds) }

func (t *rangeTask) processBatch(b *colbatch.Batch, sel *colbatch.Bitmap, snk *scanSink) (int, error) {
	if err := evalPreds(t.preds, b, sel, snk); err != nil {
		return 0, err
	}
	n := 0
	sel.Do(func(i int) bool {
		t.refs = append(t.refs, b.Ref(i))
		n++
		return true
	})
	return n, nil
}

func (t *rangeTask) finish() error {
	t.p.publishRange(t.v, t.refs)
	return nil
}
func (t *rangeTask) describe() string { return "range " + t.v }

func (t *rangeTask) shardClone() scanTask {
	return &rangeTask{p: t.p, v: t.v, preds: t.preds}
}

func (t *rangeTask) absorb(shard scanTask) error {
	t.refs = append(t.refs, shard.(*rangeTask).refs...)
	return nil
}

// slTask builds a single list; shard clones accumulate into a private
// list merged back in shard order.
type slTask struct {
	spec       *slSpec
	rangePreds []batchPred
	out        *collection.SingleList // spec.out, or shard-local
}

func (t *slTask) batchCols() ([]int, bool) { return unionPredCols(t.rangePreds, t.spec.preds) }

func (t *slTask) processBatch(b *colbatch.Batch, sel *colbatch.Bitmap, snk *scanSink) (int, error) {
	if err := evalPreds(t.rangePreds, b, sel, snk); err != nil {
		return 0, err
	}
	if err := evalPreds(t.spec.preds, b, sel, snk); err != nil {
		return 0, err
	}
	n := 0
	sel.Do(func(i int) bool {
		t.out.Add(b.Ref(i))
		n++
		return true
	})
	return n, nil
}
func (t *slTask) finish() error    { return nil }
func (t *slTask) describe() string { return "single-list " + t.spec.key }

func (t *slTask) shardClone() scanTask {
	return &slTask{spec: t.spec, rangePreds: t.rangePreds, out: collection.NewSingleList(t.spec.v)}
}

func (t *slTask) absorb(shard scanTask) error {
	t.out.Merge(shard.(*slTask).out)
	return nil
}

// ixTask builds an index over the variable's range; shard clones build
// private indexes merged back in shard order.
type ixTask struct {
	spec       *ixSpec
	rangePreds []batchPred
	out        *collection.Index // spec.out, or shard-local
}

func (t *ixTask) batchCols() ([]int, bool) {
	cols, all := unionPredCols(t.rangePreds)
	if all {
		return nil, true
	}
	return append(cols, t.spec.colIdx), false
}

func (t *ixTask) processBatch(b *colbatch.Batch, sel *colbatch.Bitmap, snk *scanSink) (int, error) {
	if err := evalPreds(t.rangePreds, b, sel, snk); err != nil {
		return 0, err
	}
	n := 0
	ci := t.spec.colIdx
	sel.Do(func(i int) bool {
		t.out.Add(b.ColVal(ci, i), b.Ref(i))
		n++
		return true
	})
	return n, nil
}
func (t *ixTask) finish() error    { return nil }
func (t *ixTask) describe() string { return "index " + t.spec.key }

func (t *ixTask) shardClone() scanTask {
	return &ixTask{spec: t.spec, rangePreds: t.rangePreds, out: collection.NewIndex(t.out.Rel, t.out.Col)}
}

func (t *ixTask) absorb(shard scanTask) error {
	t.out.Merge(shard.(*ixTask).out)
	return nil
}

// groupTask probes earlier-built indexes to produce indirect joins.
// With mutual restriction (strategy 2), an element emits pairs only when
// every probe in the group matched. The probed indexes are read-only by
// the time the task runs (the scheduler orders builds before probes);
// shard clones emit into private indirect joins merged back in shard
// order.
type groupTask struct {
	p          *plan
	grp        *probeGroup
	rangePreds []batchPred
	outs       []*collection.IndirectJoin // per probe: pr.out, or shard-local
	matchBuf   [][]value.Value
}

func newGroupTask(p *plan, grp *probeGroup, rangePreds []batchPred) *groupTask {
	t := &groupTask{p: p, grp: grp, rangePreds: rangePreds}
	for _, pr := range grp.probes {
		t.outs = append(t.outs, pr.out)
	}
	return t
}

func (t *groupTask) batchCols() ([]int, bool) {
	cols, all := unionPredCols(t.rangePreds, t.grp.preds)
	if all {
		return nil, true
	}
	for _, pr := range t.grp.probes {
		cols = append(cols, pr.probeCol)
	}
	return cols, false
}

func (t *groupTask) processBatch(b *colbatch.Batch, sel *colbatch.Bitmap, snk *scanSink) (int, error) {
	if err := evalPreds(t.rangePreds, b, sel, snk); err != nil {
		return 0, err
	}
	if err := evalPreds(t.grp.preds, b, sel, snk); err != nil {
		return 0, err
	}
	if t.matchBuf == nil {
		t.matchBuf = make([][]value.Value, len(t.grp.probes))
	}
	n := 0
	sel.Do(func(i int) bool {
		n++
		for pi := range t.grp.probes {
			pr := &t.grp.probes[pi]
			t.matchBuf[pi] = t.matchBuf[pi][:0]
			pr.index.probe(t.p, snk.st, pr.op, b.ColVal(pr.probeCol, i), func(r value.Value) {
				t.matchBuf[pi] = append(t.matchBuf[pi], r)
			})
			if t.grp.mutual && len(t.matchBuf[pi]) == 0 {
				return true // another probe failed: suppress all pairs (4.2)
			}
		}
		for pi := range t.grp.probes {
			for _, r := range t.matchBuf[pi] {
				t.outs[pi].Add(b.Ref(i), r)
			}
		}
		return true
	})
	return n, nil
}
func (t *groupTask) finish() error    { return nil }
func (t *groupTask) describe() string { return "probe " + t.grp.key }

func (t *groupTask) shardClone() scanTask {
	c := &groupTask{p: t.p, grp: t.grp, rangePreds: t.rangePreds}
	for _, pr := range t.grp.probes {
		c.outs = append(c.outs, collection.NewIndirectJoin(pr.out.LVar, pr.out.RVar))
	}
	return c
}

func (t *groupTask) absorb(shard scanTask) error {
	for i, out := range shard.(*groupTask).outs {
		t.outs[i].Merge(out)
	}
	return nil
}

// specTask feeds a strategy-4 spec while scanning the eliminated
// variable's range; shard clones feed private runtimes merged back in
// shard order before the parent's finish resolves the predicate.
type specTask struct {
	rt         *specRuntime
	rangePreds []batchPred
	monPreds   []batchPred
	dyCols     []int
}

func (t *specTask) batchCols() ([]int, bool) { return nil, true } // builds whole rows

func (t *specTask) processBatch(b *colbatch.Batch, sel *colbatch.Bitmap, snk *scanSink) (int, error) {
	if err := evalPreds(t.rangePreds, b, sel, snk); err != nil {
		return 0, err
	}
	var mon colbatch.Bitmap
	mon.CopyFrom(sel)
	if err := evalPreds(t.monPreds, b, &mon, snk); err != nil {
		return 0, err
	}
	n := 0
	row := make([]value.Value, b.NumCols())
	sel.Do(func(i int) bool {
		b.Row(i, row)
		t.rt.add(row, mon.Has(i), t.dyCols)
		n++
		return true
	})
	return n, nil
}
func (t *specTask) finish() error { return t.rt.finish() }
func (t *specTask) describe() string {
	return fmt.Sprintf("value-list spec%d (%s)", t.rt.spec.ID, t.rt.spec.Var)
}

func (t *specTask) shardClone() scanTask {
	return &specTask{rt: newSpecRuntime(t.rt.spec), rangePreds: t.rangePreds, monPreds: t.monPreds, dyCols: t.dyCols}
}

func (t *specTask) absorb(shard scanTask) error {
	t.rt.merge(shard.(*specTask).rt)
	return nil
}

// tasksForVar builds the scan tasks of one variable: its range list
// (live variables), its single lists, indexes, probe groups, and spec
// feed.
func (p *plan) tasksForVar(v string) []scanTask {
	node := p.vars[v]
	rangePreds, err := p.rangePredsFor(v)
	if err != nil {
		// Surfaced during the scan phase via an erroring task.
		return []scanTask{&errTask{err: err}}
	}
	var tasks []scanTask
	if node.live && p.needRange[v] {
		tasks = append(tasks, &rangeTask{p: p, v: v, preds: rangePreds})
	}
	for _, key := range sortedKeys(p.sls) {
		if sl := p.sls[key]; sl.v == v {
			tasks = append(tasks, &slTask{spec: sl, rangePreds: rangePreds, out: sl.out})
		}
	}
	for _, key := range sortedKeys(p.ixs) {
		if ix := p.ixs[key]; ix.v == v && ix.out != nil {
			tasks = append(tasks, &ixTask{spec: ix, rangePreds: rangePreds, out: ix.out})
		}
	}
	for _, key := range sortedKeys(p.groups) {
		if grp := p.groups[key]; grp.v == v {
			tasks = append(tasks, newGroupTask(p, grp, rangePreds))
		}
	}
	if node.rt != nil {
		task := &specTask{rt: node.rt, rangePreds: rangePreds}
		spec := node.rt.spec
		for _, m := range spec.Monadic {
			pr, err := compileMonadic(m, spec.Var, node.sch)
			if err != nil {
				return []scanTask{&errTask{err: err}}
			}
			task.monPreds = append(task.monPreds, pr)
		}
		for _, n := range spec.NestedMonadic {
			rt, ok := p.specRTs[n.Spec]
			if !ok {
				return []scanTask{&errTask{err: fmt.Errorf("engine: nested spec of %s unplanned", v)}}
			}
			pr, err := compileSemiAtom(n, node.sch, rt)
			if err != nil {
				return []scanTask{&errTask{err: err}}
			}
			task.monPreds = append(task.monPreds, liftRowPred(pr))
		}
		for _, d := range spec.Dyadic {
			ci, ok := node.sch.ColIndex(d.VnCol)
			if !ok {
				return []scanTask{&errTask{err: fmt.Errorf("engine: relation %s has no component %s", node.sch.Name, d.VnCol)}}
			}
			task.dyCols = append(task.dyCols, ci)
		}
		tasks = append(tasks, task)
	}
	return tasks
}

// errTask defers a planning error into the scan phase.
type errTask struct{ err error }

func (t *errTask) processBatch(*colbatch.Batch, *colbatch.Bitmap, *scanSink) (int, error) {
	return 0, t.err
}
func (t *errTask) batchCols() ([]int, bool) { return nil, false }
func (t *errTask) finish() error            { return t.err }
func (t *errTask) describe() string         { return "error" }

// rangePredsFor compiles v's range filter; nil when the range is not
// extended (the filter variable denotes the scanned tuple, like v).
func (p *plan) rangePredsFor(v string) ([]batchPred, error) {
	node := p.vars[v]
	if !node.rng.Extended() {
		return nil, nil
	}
	bp, err := compileFilter(node.rng.Filter, node.rng.FilterVar, node.sch)
	if err != nil {
		return nil, err
	}
	return []batchPred{bp}, nil
}

// runScans executes the collection phase: every job is one scan, run
// serially on this goroutine or — with Parallelism > 1 — fanned out to
// the sched worker pool (see exec_parallel.go). The caller holds the
// database read lock for the duration, so scans, permanent-index
// probes, and the deferred index-index joins all read one consistent
// snapshot. Cancellation is checked between jobs and per batch within
// a scan, so a long scan aborts promptly with ctx.Err().
func (p *plan) runScans(ctx context.Context) error {
	if p.par > 1 && len(p.jobs) > 0 {
		if err := p.runScansParallel(ctx); err != nil {
			return err
		}
	} else {
		for ji, job := range p.jobs {
			sp := p.collSp.Start("scan " + job.rel.Name())
			if ji < len(p.jobSpans) {
				p.jobSpans[ji] = sp
			}
			err := p.runScanJob(ctx, job, p.st)
			sp.End()
			if err != nil {
				return err
			}
		}
	}
	if err := p.runDeferred(ctx); err != nil {
		return err
	}
	p.recordStructures()
	return nil
}

// runDeferred materializes the deferred index-index joins — serially,
// or as independent sched jobs when the plan has a worker budget and
// more than one join. Each join reads structures that are frozen once
// the scans complete (the indexes, the range-list map) and writes only
// its own output, so the jobs don't conflict; per-job private sinks
// merge back in deferred order to keep counters bit-identical to the
// serial pass.
func (p *plan) runDeferred(ctx context.Context) error {
	if p.par > 1 && len(p.deferred) > 1 {
		jobs := make([]sched.Job, len(p.deferred))
		sinks := make([]*stats.Counters, len(p.deferred))
		for i, d := range p.deferred {
			i, d := i, d
			sinks[i] = &stats.Counters{}
			jobs[i] = sched.Job{
				Name: "deferred " + d.key,
				Run: func(jctx context.Context) error {
					if err := jctx.Err(); err != nil {
						return err
					}
					sp := p.collSp.Start("deferred-join")
					p.materializeDeferredInto(d, sinks[i])
					if sp != nil {
						sp.SetAttr("key", d.key)
						sp.SetInt("pairs", int64(d.out.Len()))
						sp.End()
					}
					return nil
				},
			}
		}
		err := sched.Run(ctx, p.par, jobs)
		for _, snk := range sinks {
			p.st.Merge(snk)
		}
		return err
	}
	for _, d := range p.deferred {
		if err := ctx.Err(); err != nil {
			return err
		}
		sp := p.collSp.Start("deferred-join")
		p.materializeDeferredInto(d, p.st)
		if sp != nil {
			sp.SetAttr("key", d.key)
			sp.SetInt("pairs", int64(d.out.Len()))
			sp.End()
		}
	}
	return nil
}

// runScanJob runs one whole scan job — the unsharded case — counting
// into st: one scan start, the tuples read, and everything the tasks'
// predicates and probes count.
func (p *plan) runScanJob(ctx context.Context, job *scanJob, st *stats.Counters) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	st.CountScan(job.rel.Name())
	if err := p.scanSlotRange(ctx, job, job.tasks, st, 0, job.rel.SlotSpan()); err != nil {
		return err
	}
	for _, t := range job.tasks {
		if err := t.finish(); err != nil {
			return err
		}
	}
	return nil
}

// effLen is the number of entries an index side actually contributes: a
// filtered permanent index is restricted to the variable's range list,
// so its raw length overstates the drivable entries.
func (p *plan) effLen(ix *ixSpec) int {
	if ix.perm != nil && ix.filtered {
		return len(p.rangeLst[ix.v])
	}
	return ix.length()
}

// driveSmallerSide reports whether a deferred join over op benefits
// from driving the probing with the smaller index: equality probes are
// one hash lookup each, ordered probes one binary search each, so for
// both the probe count — not the output — scales with the driving side.
// <> probes traverse the other side's whole value list either way, so
// nothing is gained by flipping.
func driveSmallerSide(op value.CmpOp) bool {
	switch op {
	case value.OpEq, value.OpLt, value.OpLe, value.OpGt, value.OpGe:
		return true
	}
	return false
}

// materializeDeferredInto joins two indexes into an indirect join
// without touching the base relation again, counting into st (the
// plan's sink, or a job-private one when deferred joins run in
// parallel). Under cost-based planning the smaller index's entries
// drive the probing (equality and ordered operators alike), minimizing
// probe count at identical output.
func (p *plan) materializeDeferredInto(d *deferredIJ, st *stats.Counters) {
	if p.est != nil && driveSmallerSide(d.op) && p.effLen(d.lIx) > p.effLen(d.rIx) {
		d.rIx.entriesDo(p, func(v, rref value.Value) {
			d.lIx.probe(p, st, d.op.Flip(), v, func(lref value.Value) {
				d.out.Add(lref, rref)
			})
		})
		return
	}
	d.lIx.entriesDo(p, func(v, lref value.Value) {
		d.rIx.probe(p, st, d.op, v, func(rref value.Value) {
			d.out.Add(lref, rref)
		})
	})
}

// emptyLiveVars returns the live variables whose (possibly extended)
// ranges turned out empty — the Lemma 1 adaptation triggers. Variables
// without materialized range lists have base ranges, which the
// pre-fold guarantees non-empty.
func (p *plan) emptyLiveVars() []string {
	var out []string
	for _, v := range p.order {
		node := p.vars[v]
		if node.live && p.needRange[v] && len(p.rangeLst[v]) == 0 {
			out = append(out, v)
		}
	}
	return out
}

// freeRangeEmpty reports whether a free variable's range is empty,
// consulting the materialized list when one exists and the base
// relation otherwise.
func (p *plan) freeRangeEmpty(v string) bool {
	if p.needRange[v] {
		return len(p.rangeLst[v]) == 0
	}
	return p.vars[v].rel.Len() == 0
}

func (p *plan) recordStructures() {
	for _, key := range sortedKeys(p.sls) {
		p.st.RecordStructure(key, "single-list", p.sls[key].out.Len())
	}
	for _, key := range sortedKeys(p.ixs) {
		p.st.RecordStructure(key, "index", p.ixs[key].length())
	}
	for _, grp := range p.groups {
		for _, pr := range grp.probes {
			p.st.RecordStructure("ij|"+grp.v+"-"+pr.index.v, "indirect-join", pr.out.Len())
		}
	}
	for _, d := range p.deferred {
		p.st.RecordStructure(d.key, "indirect-join", d.out.Len())
	}
	for _, rt := range p.specRTs {
		p.st.RecordStructure(fmt.Sprintf("vl|spec%d|%s", rt.spec.ID, rt.spec.Var), "value-list", rt.Size())
	}
}

// liveVars returns free variables then surviving prefix variables.
func (p *plan) liveVars() []string {
	out := make([]string, 0, len(p.x.Free)+len(p.x.Prefix))
	for _, d := range p.x.Free {
		out = append(out, d.Var)
	}
	for _, q := range p.x.Prefix {
		out = append(out, q.Var)
	}
	return out
}

// combState is the per-execution-strand state of the combination
// phase: the counter sink the strand's algebra operations feed (the
// plan's, or a private one when conjunctions run as parallel jobs), the
// span joins hang off, the join log, and the budget checkpoint values
// recorded for the ordered replay below.
type combState struct {
	st *stats.Counters
	// base is st.RefTuples when the state was created, so checkVals are
	// deltas regardless of whether st is shared or private.
	base      int64
	sp        *obs.Span
	joinLog   []joinStep
	checkVals []int64
}

// combBudget is the reference-tuple budget shared by every combination
// strand. base0 is the execution's materialization before the
// combination phase started (relative to the plan's refBase).
type combBudget struct{ max, base0 int64 }

func (b *combBudget) err() error {
	return fmt.Errorf("engine: combination phase exceeded %d reference tuples", b.max)
}

// checkpoint records a budget checkpoint for cs and aborts on
// cancellation or when the strand's own materialization alone exceeds
// the budget. The own-only test is deliberately conservative: a
// strand's delta is a lower bound on the serial cumulative value at the
// same checkpoint, so it can never error where the serial schedule
// would not — cross-strand accumulation is caught by the exact ordered
// replay in combine.
func (p *plan) checkpoint(ctx context.Context, cs *combState, budget *combBudget) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if cs.st == nil {
		return nil
	}
	val := cs.st.RefTuples - cs.base
	cs.checkVals = append(cs.checkVals, val)
	if budget.max > 0 && budget.base0+val > budget.max {
		return budget.err()
	}
	return nil
}

// combine runs the combination phase: per-conjunction n-tuples of
// references, union over the disjunction, then quantifier elimination
// right-to-left (projection for SOME, division for ALL). It returns a
// reference relation over the free variables. Cancellation and the
// reference-tuple budget are checked between algebra operations.
//
// With Parallelism > 1 and several conjunctions, the per-conjunction
// greedy joins run as independent sched jobs: each feeds a private
// counter sink and join log, merged back in conjunction order, so the
// merged counters — and hence the fingerprint — are bit-identical to
// the serial schedule. The budget keeps exactly the serial checkpoints
// (after every join, after every quantifier op), re-checked in
// conjunction order after the jobs complete, so the error/no-error
// outcome matches the serial schedule exactly.
func (p *plan) combine(ctx context.Context, maxRefTuples int64) (*algebra.RefRel, error) {
	live := p.liveVars()
	var union *algebra.RefRel
	budget := &combBudget{max: maxRefTuples, base0: p.st.RefTuples - p.refBase}

	if p.x.Const != nil && *p.x.Const {
		// Constant TRUE matrix: the n-tuples are the full Cartesian
		// product of the live ranges; quantifiers then collapse over
		// their (non-empty) ranges, so only the free variables matter.
		cs := &combState{st: p.st, base: p.st.RefTuples, sp: p.combSp}
		pieces := make([]*algebra.RefRel, 0, len(p.x.Free))
		for _, d := range p.x.Free {
			pieces = append(pieces, algebra.FromRefs(d.Var, p.rangeLst[d.Var], p.st))
		}
		joined, err := p.greedyJoin(ctx, pieces, cs, budget)
		p.joinLog = append(p.joinLog, cs.joinLog...)
		if err != nil {
			return nil, err
		}
		return joined, nil
	}

	// Constant gates are resolved up front so their errors stay
	// deterministic regardless of how the conjunction jobs interleave.
	type conjJob struct {
		ci  int
		cs  *combState
		rel *algebra.RefRel
	}
	var cjobs []*conjJob
	for ci, cp := range p.conjs {
		skip := false
		for _, rt := range cp.consts {
			if !rt.resolved {
				return nil, fmt.Errorf("engine: unresolved constant spec in conjunction %d", ci)
			}
			if !rt.constVal {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		cjobs = append(cjobs, &conjJob{ci: ci, cs: &combState{st: &stats.Counters{}}})
	}

	runConj := func(jctx context.Context, cj *conjJob) error {
		cp, cs := p.conjs[cj.ci], cj.cs
		var pieces []*algebra.RefRel
		for i, ij := range cp.ijs {
			pieces = append(pieces, algebra.FromPairs(cp.ijNames[i][0], cp.ijNames[i][1], ij.Pairs(), cs.st))
		}
		for _, sl := range cp.sls {
			pieces = append(pieces, algebra.FromRefs(sl.v, sl.out.Refs(), cs.st))
		}
		// Unconstrained live variables enter as their full range lists —
		// the Cartesian blow-up the paper's strategies fight.
		for _, v := range live {
			if !cp.consumed[v] {
				pieces = append(pieces, algebra.FromRefs(v, p.rangeLst[v], cs.st))
			}
		}
		if len(pieces) == 0 {
			return fmt.Errorf("engine: conjunction %d has no pieces", cj.ci)
		}
		joined, err := p.greedyJoin(jctx, pieces, cs, budget)
		if err != nil {
			return err
		}
		cs.st.RecordStructure(fmt.Sprintf("conj%d", cj.ci), "refrel", joined.Len())
		cj.rel = joined
		return nil
	}

	var runErr error
	if p.par > 1 && len(cjobs) > 1 {
		jobs := make([]sched.Job, len(cjobs))
		for i, cj := range cjobs {
			cj := cj
			jobs[i] = sched.Job{
				Name: fmt.Sprintf("conj%d", cj.ci),
				Run: func(jctx context.Context) error {
					cj.cs.sp = p.combSp.Start(fmt.Sprintf("conj%d", cj.ci))
					err := runConj(jctx, cj)
					cj.cs.sp.End()
					return err
				},
			}
		}
		if p.combSp != nil {
			p.combSp.SetAttr("exec", "parallel")
		}
		runErr = sched.Run(ctx, p.par, jobs)
	} else {
		for _, cj := range cjobs {
			cj.cs.sp = p.combSp
			if runErr = runConj(ctx, cj); runErr != nil {
				break
			}
		}
	}

	// Merge the strands back in conjunction order — error or not — so
	// counters, structure records, and the join log stay deterministic.
	for _, cj := range cjobs {
		p.st.Merge(cj.cs.st)
		p.joinLog = append(p.joinLog, cj.cs.joinLog...)
	}
	if runErr != nil {
		return nil, runErr
	}

	// Exact budget replay: walk the recorded checkpoints in conjunction
	// order against the cumulative total, reproducing precisely the
	// values the serial schedule's checks would have seen.
	if budget.max > 0 {
		prev := budget.base0
		for _, cj := range cjobs {
			for _, v := range cj.cs.checkVals {
				if prev+v > budget.max {
					return nil, budget.err()
				}
			}
			prev += cj.cs.st.RefTuples
		}
	}

	conjRels := make([]*algebra.RefRel, 0, len(cjobs))
	for _, cj := range cjobs {
		conjRels = append(conjRels, cj.rel)
	}

	if len(conjRels) == 0 {
		return algebra.New(freeVarNames(p), p.st), nil
	}
	union = conjRels[0]
	for _, r := range conjRels[1:] {
		u, err := algebra.Union(ctx, union, r, p.st)
		if err != nil {
			return nil, err
		}
		union = u
	}
	p.st.RecordStructure("union", "refrel", union.Len())

	// Quantifiers are evaluated from right to left.
	for i := len(p.x.Prefix) - 1; i >= 0; i-- {
		q := p.x.Prefix[i]
		if q.All {
			div, err := algebra.Divide(ctx, union, q.Var, p.rangeLst[q.Var], p.st)
			if err != nil {
				return nil, err
			}
			union = div
		} else {
			keep := make([]string, 0, len(union.Vars())-1)
			for _, v := range union.Vars() {
				if v != q.Var {
					keep = append(keep, v)
				}
			}
			proj, err := algebra.Project(ctx, union, keep, p.st)
			if err != nil {
				return nil, err
			}
			union = proj
		}
		if err := checkLimits(ctx, p, maxRefTuples); err != nil {
			return nil, err
		}
	}
	return union, nil
}

func freeVarNames(p *plan) []string {
	out := make([]string, len(p.x.Free))
	for i, d := range p.x.Free {
		out[i] = d.Var
	}
	return out
}

// greedyJoin combines pieces into a single reference relation. The
// static plan joins variable-sharing pairs with the smallest size
// product first; the cost-based plan instead picks the pair with the
// smallest estimated join output (|a|·|b| over the larger distinct count
// of the shared variables), so equality-linked pieces whose hash join
// collapses the product are taken before pairs that merely look small.
// Disconnected pieces fall back to Cartesian products either way.
// Counters, spans, the join log, and budget checkpoints all go through
// cs, so the same code serves the serial schedule (cs over the plan's
// sink and span) and a parallel conjunction job (private sink, per-
// conjunction span).
func (p *plan) greedyJoin(ctx context.Context, pieces []*algebra.RefRel, cs *combState, budget *combBudget) (*algebra.RefRel, error) {
	for len(pieces) > 1 {
		bi, bj, bestShared, bestProd := -1, -1, false, int64(0)
		bestEst := 0.0
		for i := 0; i < len(pieces); i++ {
			for j := i + 1; j < len(pieces); j++ {
				var est float64
				var sharedVars bool
				if p.est != nil {
					est, sharedVars = algebra.EstimateJoinSize(pieces[i], pieces[j])
				} else {
					for _, v := range pieces[i].Vars() {
						if _, ok := pieces[j].ColIdx(v); ok {
							sharedVars = true
							break
						}
					}
				}
				prod := int64(pieces[i].Len()) * int64(pieces[j].Len())
				better := false
				switch {
				case bi < 0:
					better = true
				case sharedVars != bestShared:
					better = sharedVars
				case p.est != nil && est != bestEst:
					better = est < bestEst
				default:
					better = prod < bestProd
				}
				if better {
					bi, bj, bestShared, bestProd, bestEst = i, j, sharedVars, prod, est
				}
			}
		}
		jsp := cs.sp.Start("join")
		joined, err := algebra.Join(ctx, pieces[bi], pieces[bj], cs.st)
		if err != nil {
			jsp.End()
			return nil, err
		}
		est := -1.0
		if p.est != nil {
			est = bestEst
		}
		cs.joinLog = append(cs.joinLog, joinStep{
			vars: strings.Join(joined.Vars(), ","), est: est, got: joined.Len(),
		})
		if jsp != nil {
			jsp.SetAttr("vars", strings.Join(joined.Vars(), ","))
			jsp.SetInt("actual", int64(joined.Len()))
			if est >= 0 {
				jsp.SetFloat("est", est)
			}
			jsp.End()
		}
		next := make([]*algebra.RefRel, 0, len(pieces)-1)
		for k, r := range pieces {
			if k != bi && k != bj {
				next = append(next, r)
			}
		}
		pieces = append(next, joined)
		if err := p.checkpoint(ctx, cs, budget); err != nil {
			return nil, err
		}
	}
	return pieces[0], nil
}

// checkLimits enforces the combination phase's two abort conditions:
// context cancellation and the reference-tuple budget. The budget
// bounds this execution's materialization (the counter delta since plan
// creation), not the shared sink's cumulative total.
func checkLimits(ctx context.Context, p *plan, maxRefTuples int64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if maxRefTuples > 0 && p.st != nil && p.st.RefTuples-p.refBase > maxRefTuples {
		return fmt.Errorf("engine: combination phase exceeded %d reference tuples", maxRefTuples)
	}
	return nil
}
