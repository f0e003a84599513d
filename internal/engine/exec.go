package engine

import (
	"context"
	"fmt"
	"strings"

	"pascalr/internal/algebra"
	"pascalr/internal/colbatch"
	"pascalr/internal/collection"
	"pascalr/internal/stats"
	"pascalr/internal/value"
)

// scanTask consumes the columnar batches of one relation scan. sel
// arrives all-ones over the batch's rows and is the task's to mutate;
// the count processBatch returns is the rows surviving the task's own
// predicate chain (feeding the selection-density metrics). finish runs
// once per task after the scan completed.
type scanTask interface {
	processBatch(b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) (int, error)
	// batchCols reports the column indexes processBatch reads; the scan
	// materializes only the union across its tasks.
	batchCols() []int
	finish() error
	describe() string
}

// rangeTask collects the references of a live variable's range —
// "the collection phase evaluates range expressions". References
// accumulate task-locally, in a single list the workspace lends, and
// publish into the plan's range-list map at finish.
type rangeTask struct {
	p     *plan
	v     string
	preds []batchPred // the range filter, if extended
	refs  *collection.SingleList
}

func (t *rangeTask) batchCols() []int { return unionPredCols(t.preds) }

func (t *rangeTask) processBatch(b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) (int, error) {
	if err := evalPreds(t.preds, b, sel, st); err != nil {
		return 0, err
	}
	n := sel.Count()
	t.refs.Reserve(n)
	sel.Do(func(i int) bool {
		t.refs.Add(b.Ref(i).Ord())
		return true
	})
	return n, nil
}

func (t *rangeTask) finish() error {
	t.p.rangeLst[t.v] = t.refs.Refs()
	return nil
}
func (t *rangeTask) describe() string { return "range " + t.v }

// slTask builds a single list. A variable is scanned once and each
// single list has one task, so every element enters the list at most
// once, in ascending slot order.
type slTask struct {
	spec       *slSpec
	rangePreds []batchPred
}

func (t *slTask) batchCols() []int { return unionPredCols(t.rangePreds, t.spec.preds) }

func (t *slTask) processBatch(b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) (int, error) {
	if err := evalPreds(t.rangePreds, b, sel, st); err != nil {
		return 0, err
	}
	if err := evalPreds(t.spec.preds, b, sel, st); err != nil {
		return 0, err
	}
	n := sel.Count()
	t.spec.out.Reserve(n)
	sel.Do(func(i int) bool {
		t.spec.out.Add(b.Ref(i).Ord())
		return true
	})
	return n, nil
}
func (t *slTask) finish() error    { return nil }
func (t *slTask) describe() string { return "single-list " + t.spec.key }

// ixTask builds an index over the variable's range.
type ixTask struct {
	spec       *ixSpec
	rangePreds []batchPred
}

func (t *ixTask) batchCols() []int {
	return append(unionPredCols(t.rangePreds), t.spec.colIdx)
}

func (t *ixTask) processBatch(b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) (int, error) {
	if err := evalPreds(t.rangePreds, b, sel, st); err != nil {
		return 0, err
	}
	n := sel.Count()
	ci := t.spec.colIdx
	t.spec.out.Reserve(n)
	sel.Do(func(i int) bool {
		t.spec.out.Add(b.ColVal(ci, i), b.Ref(i).Ord())
		return true
	})
	return n, nil
}
func (t *ixTask) finish() error    { return nil }
func (t *ixTask) describe() string { return "index " + t.spec.key }

// groupTask probes earlier-built indexes to produce indirect joins.
// With mutual restriction (strategy 2), an element emits pairs only when
// every probe in the group matched. The probed indexes are complete by
// the time the task runs: the scan order puts builds before probes.
type groupTask struct {
	p          *plan
	grp        *probeGroup
	rangePreds []batchPred
	matchBuf   [][]int64
}

func (t *groupTask) batchCols() []int {
	cols := unionPredCols(t.rangePreds, t.grp.preds)
	for _, pr := range t.grp.probes {
		cols = append(cols, pr.probeCol)
	}
	return cols
}

func (t *groupTask) processBatch(b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) (int, error) {
	if err := evalPreds(t.rangePreds, b, sel, st); err != nil {
		return 0, err
	}
	if err := evalPreds(t.grp.preds, b, sel, st); err != nil {
		return 0, err
	}
	if t.matchBuf == nil {
		t.matchBuf = make([][]int64, len(t.grp.probes))
	}
	n := 0
	sel.Do(func(i int) bool {
		n++
		for pi := range t.grp.probes {
			pr := &t.grp.probes[pi]
			t.matchBuf[pi] = t.matchBuf[pi][:0]
			pr.index.probe(t.p, pr.op, b.ColVal(pr.probeCol, i), func(r int64) {
				t.matchBuf[pi] = append(t.matchBuf[pi], r)
			})
			if t.grp.mutual && len(t.matchBuf[pi]) == 0 {
				return true // another probe failed: suppress all pairs (4.2)
			}
		}
		ref := b.Ref(i).Ord()
		for pi := range t.grp.probes {
			for _, r := range t.matchBuf[pi] {
				t.grp.probes[pi].out.Add(ref, r)
			}
		}
		return true
	})
	return n, nil
}
func (t *groupTask) finish() error    { return nil }
func (t *groupTask) describe() string { return "probe " + t.grp.key }

// specTask feeds a strategy-4 spec while scanning the eliminated
// variable's range; finish resolves the predicate.
type specTask struct {
	rt         *specRuntime
	rangePreds []batchPred
	monPreds   []batchPred
	dyCols     []int
	mon        colbatch.Bitmap
}

func (t *specTask) batchCols() []int {
	return append(unionPredCols(t.rangePreds, t.monPreds), t.dyCols...)
}

func (t *specTask) processBatch(b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) (int, error) {
	if err := evalPreds(t.rangePreds, b, sel, st); err != nil {
		return 0, err
	}
	t.mon.CopyFrom(sel)
	if err := evalPreds(t.monPreds, b, &t.mon, st); err != nil {
		return 0, err
	}
	t.rt.add(b, sel, &t.mon, t.dyCols)
	return sel.Count(), nil
}
func (t *specTask) finish() error { return t.rt.finish() }
func (t *specTask) describe() string {
	return fmt.Sprintf("value-list spec%d (%s)", t.rt.spec.ID, t.rt.spec.Var)
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
		tasks = append(tasks, &rangeTask{p: p, v: v, preds: rangePreds, refs: p.ws.coll.SingleList(v)})
	}
	for _, key := range sortedKeys(p.sls) {
		if sl := p.sls[key]; sl.v == v {
			tasks = append(tasks, &slTask{spec: sl, rangePreds: rangePreds})
		}
	}
	for _, key := range sortedKeys(p.ixs) {
		if ix := p.ixs[key]; ix.v == v && ix.out != nil {
			tasks = append(tasks, &ixTask{spec: ix, rangePreds: rangePreds})
		}
	}
	for _, key := range sortedKeys(p.groups) {
		if grp := p.groups[key]; grp.v == v {
			tasks = append(tasks, &groupTask{p: p, grp: grp, rangePreds: rangePreds})
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
			task.monPreds = append(task.monPreds, pr)
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

func (t *errTask) processBatch(*colbatch.Batch, *colbatch.Bitmap, *stats.Counters) (int, error) {
	return 0, t.err
}
func (t *errTask) batchCols() []int { return nil }
func (t *errTask) finish() error    { return t.err }
func (t *errTask) describe() string { return "error" }

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
// in plan order on the calling goroutine — strategy 1's single pass per
// relation, with each index built before the scans that probe it. The
// caller holds the database read lock for the duration, so scans,
// permanent-index probes, and the deferred index-index joins all read
// one consistent snapshot. Cancellation is checked between jobs and per
// batch within a scan, so a long scan aborts promptly with ctx.Err().
func (p *plan) runScans(ctx context.Context) error {
	for ji, job := range p.jobs {
		sp := p.collSp.Start("scan " + job.rel.Name())
		if ji < len(p.jobSpans) {
			p.jobSpans[ji] = sp
		}
		err := p.runScanJob(ctx, job)
		sp.End()
		if err != nil {
			return err
		}
	}
	for _, d := range p.deferred {
		if err := ctx.Err(); err != nil {
			return err
		}
		sp := p.collSp.Start("deferred-join")
		p.materializeDeferred(d)
		if sp != nil {
			sp.SetAttr("key", d.key)
			sp.SetInt("pairs", int64(d.out.Len()))
			sp.End()
		}
	}
	p.recordStructures()
	return nil
}

// runScanJob runs one scan job: one scan start, the tuples read, and
// everything the tasks' predicates and probes count.
func (p *plan) runScanJob(ctx context.Context, job *scanJob) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p.st.CountScan(job.rel.Name())
	if err := p.scanBatches(ctx, job); err != nil {
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

// materializeDeferred joins two indexes into an indirect join without
// touching the base relation again. Under cost-based planning the
// smaller index's entries drive the probing (equality and ordered
// operators alike), minimizing probe count at identical output.
func (p *plan) materializeDeferred(d *deferredIJ) {
	if p.est != nil && driveSmallerSide(d.op) && p.effLen(d.lIx) > p.effLen(d.rIx) {
		d.rIx.entriesDo(p, func(v value.Value, rref int64) {
			d.lIx.probe(p, d.op.Flip(), v, func(lref int64) {
				d.out.Add(lref, rref)
			})
		})
		return
	}
	d.lIx.entriesDo(p, func(v value.Value, lref int64) {
		d.rIx.probe(p, d.op, v, func(rref int64) {
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

// resultEmpty reports whether the collection phase proved the result
// empty: a constant-FALSE matrix, or an empty free range.
func (p *plan) resultEmpty() bool {
	if p.x.Const != nil && !*p.x.Const {
		return true
	}
	for _, d := range p.x.Free {
		if p.freeRangeEmpty(d.Var) {
			return true
		}
	}
	return false
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

// combine runs the combination phase: per-conjunction n-tuples of
// references, union over the disjunction, then quantifier elimination
// right-to-left (projection for SOME, division for ALL). It returns a
// reference relation over the free variables. Cancellation and the
// reference-tuple budget are checked once each conjunction's pieces
// exist, after every join, after the union and after every quantifier
// op, against the execution's cumulative materialization.
func (p *plan) combine(ctx context.Context, maxRefTuples int64) (*algebra.RefRel, error) {
	live := p.liveVars()

	if p.x.Const != nil && *p.x.Const {
		// Constant TRUE matrix: the n-tuples are the full Cartesian
		// product of the live ranges; quantifiers then collapse over
		// their (non-empty) ranges, so only the free variables matter.
		pieces := make([]*algebra.RefRel, 0, len(p.x.Free))
		for _, d := range p.x.Free {
			pieces = append(pieces, p.ws.alg.FromRefs(d.Var, p.rangeLst[d.Var], p.st))
		}
		return p.greedyJoin(ctx, pieces, maxRefTuples)
	}

	var conjRels []*algebra.RefRel
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
		var pieces []*algebra.RefRel
		for i, ij := range cp.ijs {
			pieces = append(pieces, p.ws.alg.FromPairs(cp.ijNames[i][0], cp.ijNames[i][1], ij.Pairs(), p.st))
		}
		for _, sl := range cp.sls {
			pieces = append(pieces, p.ws.alg.FromRefs(sl.v, sl.out.Refs(), p.st))
		}
		// Unconstrained live variables enter as their full range lists —
		// the Cartesian blow-up the paper's strategies fight.
		for _, v := range live {
			if !cp.consumed[v] {
				pieces = append(pieces, p.ws.alg.FromRefs(v, p.rangeLst[v], p.st))
			}
		}
		if len(pieces) == 0 {
			return nil, fmt.Errorf("engine: conjunction %d has no pieces", ci)
		}
		joined, err := p.greedyJoin(ctx, pieces, maxRefTuples)
		if err != nil {
			return nil, err
		}
		p.st.RecordStructure(fmt.Sprintf("conj%d", ci), "refrel", joined.Len())
		conjRels = append(conjRels, joined)
	}

	if len(conjRels) == 0 {
		return p.ws.alg.New(freeVarNames(p), p.st), nil
	}
	union := conjRels[0]
	for _, r := range conjRels[1:] {
		u, err := algebra.Union(ctx, union, r, p.st)
		if err != nil {
			return nil, err
		}
		union = u
	}
	p.st.RecordStructure("union", "refrel", union.Len())
	if err := checkLimits(ctx, p, maxRefTuples); err != nil {
		return nil, err
	}

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
func (p *plan) greedyJoin(ctx context.Context, pieces []*algebra.RefRel, maxRefTuples int64) (*algebra.RefRel, error) {
	for {
		// The pieces themselves materialized reference tuples, so the
		// budget is checked before the first join as well as after
		// every one — a single piece joins nothing.
		if err := checkLimits(ctx, p, maxRefTuples); err != nil {
			return nil, err
		}
		if len(pieces) == 1 {
			return pieces[0], nil
		}
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
		jsp := p.combSp.Start("join")
		joined, err := algebra.Join(ctx, pieces[bi], pieces[bj], p.st)
		if err != nil {
			jsp.End()
			return nil, err
		}
		est := -1.0
		if p.est != nil {
			est = bestEst
		}
		p.joinLog = append(p.joinLog, joinStep{
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
	}
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
