package engine

import (
	"fmt"

	"pascalr/internal/calculus"
	"pascalr/internal/colbatch"
	"pascalr/internal/collection"
	"pascalr/internal/optimizer"
	"pascalr/internal/schema"
	"pascalr/internal/stats"
	"pascalr/internal/value"
)

// The predicate compiler. Range filters and monadic atoms compile, once
// per plan, to bulk predicates over columnar batches (internal/colbatch):
// a predicate clears the selection bits of the rows that fail, and
// chains combine with bitwise AND/OR/AND-NOT.
//
// The counter discipline is the paper's tuple-at-a-time one, kept
// exactly: a Cmp over a selection of k rows counts k comparisons, a
// chain evaluates (and counts) predicate j only over the rows
// predicates 0..j-1 kept, Or evaluates disjunct k only over rows no
// earlier disjunct admitted, and row predicates (derived strategy-4
// atoms) run against reconstructed rows exactly on the selected
// positions. enginetest's counters.golden, generated by the deleted
// tuple driver, pins it.

// scanSink is where one scan counts: st takes the paper's counters,
// and liftedRows tallies the rows evaluated row-at-a-time through
// liftRowPred, for the trace and the metrics only.
type scanSink struct {
	st         *stats.Counters
	liftedRows int64
}

// batchPred evaluates one predicate in bulk over a batch, clearing the
// selection bits of rows that fail. cols lists the column indexes run reads (all marks whole-row
// access instead); the scan materializes only the union of its tasks'
// footprints into the batch — the projection pushdown.
type batchPred struct {
	run  func(b *colbatch.Batch, sel *colbatch.Bitmap, snk *scanSink) error
	cols []int
	all  bool
}

// rowPred tests one reconstructed row, counting comparisons into the
// scanning worker's sink. Only derived strategy-4 atoms have this form
// (compileSemiAtom); liftRowPred runs them inside a batch.
type rowPred func(tuple []value.Value, st *stats.Counters) (bool, error)

// unionPredCols merges the column footprints of a predicate chain;
// all=true swallows everything (some predicate reads whole rows).
func unionPredCols(chains ...[]batchPred) ([]int, bool) {
	seen := map[int]bool{}
	cols := []int{}
	for _, preds := range chains {
		for _, p := range preds {
			if p.all {
				return nil, true
			}
			for _, c := range p.cols {
				if !seen[c] {
					seen[c] = true
					cols = append(cols, c)
				}
			}
		}
	}
	return cols, false
}

// evalPreds applies a predicate chain to sel: predicate j sees (and
// counts) only the rows predicates 0..j-1 kept.
func evalPreds(preds []batchPred, b *colbatch.Batch, sel *colbatch.Bitmap, snk *scanSink) error {
	for _, p := range preds {
		if sel.Empty() {
			return nil // nothing left to evaluate (or count)
		}
		if err := p.run(b, sel, snk); err != nil {
			return err
		}
	}
	return nil
}

// liftRowPred lifts a row predicate to batch form: the predicate runs
// against reconstructed rows, exactly on the selected positions in
// ascending order, so its counting is untouched. Derived strategy-4
// atoms are the only predicates without a bulk form, which makes this
// the only row-at-a-time evaluation left in the collection phase; the
// rows it touches are tallied per call, not per row.
func liftRowPred(pr rowPred) batchPred {
	return batchPred{all: true, run: func(b *colbatch.Batch, sel *colbatch.Bitmap, snk *scanSink) error {
		snk.liftedRows += int64(sel.Count())
		row := make([]value.Value, b.NumCols())
		return sel.Filter(func(i int) (bool, error) {
			b.Row(i, row)
			return pr(row, snk.st)
		})
	}}
}

// constPred compiles "col[ci] op rhs" into a bulk predicate.
// Int-backed columns run the unboxed FilterOrdBits kernel over the
// batch's raw ordinal vector: the column's kind is known from the
// schema, so the constant is type-checked here, at compile time, and
// no per-row kind dispatch remains. A mismatched constant is a
// planning error; calculus.Check rejects every such comparison first
// (schema.Type.Comparable), which TestComparableImpliesCompilable
// holds the two to. String columns keep the boxed FilterBits path.
func constPred(ci int, op value.CmpOp, rhs value.Value, sch *schema.RelSchema) (batchPred, error) {
	k := sch.Cols[ci].Type.ValueKind()
	if !value.OrdKind(k) {
		return batchPred{cols: []int{ci}, run: func(b *colbatch.Batch, sel *colbatch.Bitmap, snk *scanSink) error {
			snk.st.CountComparisons(sel.Count())
			return op.FilterBits(b.Vals(ci), rhs, sel.Words())
		}}, nil
	}
	if rhs.Kind() != k {
		return batchPred{}, fmt.Errorf("engine: cannot compare %s column %s with %s constant", k, sch.Cols[ci].Name, rhs.Kind())
	}
	if k == value.KindEnum && rhs.EnumType() != sch.Cols[ci].Type.Name {
		return batchPred{}, fmt.Errorf("engine: cannot compare enum %s column %s with enum %s constant", sch.Cols[ci].Type.Name, sch.Cols[ci].Name, rhs.EnumType())
	}
	r := rhs.Ord()
	return batchPred{cols: []int{ci}, run: func(b *colbatch.Batch, sel *colbatch.Bitmap, snk *scanSink) error {
		snk.st.CountComparisons(sel.Count())
		op.FilterOrdBits(b.Ords(ci), r, sel.Words())
		return nil
	}}, nil
}

// compileMonadic compiles a monadic join term over v into a bulk
// predicate. Field-versus-constant terms — the common case — go
// through constPred, one (compile-time) kind dispatch per column
// instead of per row; field-versus-field terms run a per-selected-row
// loop, unboxed when both columns are int-backed.
func compileMonadic(c *calculus.Cmp, v string, sch *schema.RelSchema) (batchPred, error) {
	colIdx := func(f calculus.Field) (int, error) {
		if f.Var != v {
			return 0, fmt.Errorf("engine: operand %s is not over variable %s", f, v)
		}
		ci, ok := sch.ColIndex(f.Col)
		if !ok {
			return 0, fmt.Errorf("engine: relation %s has no component %s", sch.Name, f.Col)
		}
		return ci, nil
	}
	op := c.Op
	lc, lConst := c.L.(calculus.Const)
	lf, lField := c.L.(calculus.Field)
	rc, rConst := c.R.(calculus.Const)
	rf, rField := c.R.(calculus.Field)
	switch {
	case lField && rConst:
		ci, err := colIdx(lf)
		if err != nil {
			return batchPred{}, err
		}
		return constPred(ci, op, rc.Val, sch)
	case lConst && rField:
		ci, err := colIdx(rf)
		if err != nil {
			return batchPred{}, err
		}
		// const op col[i]  ⇔  col[i] flip(op) const
		return constPred(ci, op.Flip(), lc.Val, sch)
	case lField && rField:
		li, err := colIdx(lf)
		if err != nil {
			return batchPred{}, err
		}
		ri, err := colIdx(rf)
		if err != nil {
			return batchPred{}, err
		}
		lk, rk := sch.Cols[li].Type.ValueKind(), sch.Cols[ri].Type.ValueKind()
		if value.OrdKind(lk) || value.OrdKind(rk) {
			// Same compile-time discipline as constPred.
			if lk != rk {
				return batchPred{}, fmt.Errorf("engine: cannot compare %s column %s with %s column %s", lk, sch.Cols[li].Name, rk, sch.Cols[ri].Name)
			}
			if lk == value.KindEnum && sch.Cols[li].Type.Name != sch.Cols[ri].Type.Name {
				return batchPred{}, fmt.Errorf("engine: cannot compare enum %s column %s with enum %s column %s", sch.Cols[li].Type.Name, sch.Cols[li].Name, sch.Cols[ri].Type.Name, sch.Cols[ri].Name)
			}
			return batchPred{cols: []int{li, ri}, run: func(b *colbatch.Batch, sel *colbatch.Bitmap, snk *scanSink) error {
				snk.st.CountComparisons(sel.Count())
				lcol, rcol := b.Ords(li), b.Ords(ri)
				return sel.Filter(func(i int) (bool, error) {
					return op.HoldsOrd(lcol[i], rcol[i]), nil
				})
			}}, nil
		}
		return batchPred{cols: []int{li, ri}, run: func(b *colbatch.Batch, sel *colbatch.Bitmap, snk *scanSink) error {
			snk.st.CountComparisons(sel.Count())
			lcol, rcol := b.Vals(li), b.Vals(ri)
			return sel.Filter(func(i int) (bool, error) {
				return op.Apply(lcol[i], rcol[i])
			})
		}}, nil
	case lConst && rConst:
		lv, rv := lc.Val, rc.Val
		return batchPred{run: func(_ *colbatch.Batch, sel *colbatch.Bitmap, snk *scanSink) error {
			n := sel.Count()
			if n == 0 {
				return nil
			}
			snk.st.CountComparisons(n)
			ok, err := op.Apply(lv, rv)
			if err != nil {
				return err
			}
			if !ok {
				sel.ClearAll(sel.Len())
			}
			return nil
		}}, nil
	default:
		return batchPred{}, fmt.Errorf("engine: unresolved operand in %s", c)
	}
}

// compileFilter compiles a quantifier-free range filter formula over
// the filter variable into a bulk predicate: And chains filter
// sequentially, Or evaluates disjunct k only over rows no earlier
// disjunct admitted, Not evaluates its operand over every row reaching
// it.
func compileFilter(f calculus.Formula, fv string, sch *schema.RelSchema) (batchPred, error) {
	switch g := f.(type) {
	case nil:
		return batchPred{}, fmt.Errorf("engine: nil filter formula")
	case *calculus.Lit:
		val := g.Val
		return batchPred{run: func(_ *colbatch.Batch, sel *colbatch.Bitmap, _ *scanSink) error {
			if !val {
				sel.ClearAll(sel.Len())
			}
			return nil
		}}, nil
	case *calculus.Cmp:
		return compileMonadic(g, fv, sch)
	case *calculus.Not:
		sub, err := compileFilter(g.F, fv, sch)
		if err != nil {
			return batchPred{}, err
		}
		return batchPred{cols: sub.cols, all: sub.all, run: func(b *colbatch.Batch, sel *colbatch.Bitmap, snk *scanSink) error {
			var tmp colbatch.Bitmap
			tmp.CopyFrom(sel)
			if err := sub.run(b, &tmp, snk); err != nil {
				return err
			}
			sel.AndNot(&tmp)
			return nil
		}}, nil
	case *calculus.And:
		subs, err := compileFilters(g.Fs, fv, sch)
		if err != nil {
			return batchPred{}, err
		}
		cols, all := unionPredCols(subs)
		return batchPred{cols: cols, all: all, run: func(b *colbatch.Batch, sel *colbatch.Bitmap, snk *scanSink) error {
			return evalPreds(subs, b, sel, snk)
		}}, nil
	case *calculus.Or:
		subs, err := compileFilters(g.Fs, fv, sch)
		if err != nil {
			return batchPred{}, err
		}
		cols, all := unionPredCols(subs)
		return batchPred{cols: cols, all: all, run: func(b *colbatch.Batch, sel *colbatch.Bitmap, snk *scanSink) error {
			var acc, remaining, m colbatch.Bitmap
			acc.ClearAll(sel.Len())
			remaining.CopyFrom(sel)
			for _, s := range subs {
				if remaining.Empty() {
					break
				}
				m.CopyFrom(&remaining)
				if err := s.run(b, &m, snk); err != nil {
					return err
				}
				acc.Or(&m)
				remaining.AndNot(&m)
			}
			sel.CopyFrom(&acc)
			return nil
		}}, nil
	default:
		return batchPred{}, fmt.Errorf("engine: quantifier inside range filter")
	}
}

func compileFilters(fs []calculus.Formula, fv string, sch *schema.RelSchema) ([]batchPred, error) {
	out := make([]batchPred, len(fs))
	for i, f := range fs {
		p, err := compileFilter(f, fv, sch)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// specRuntime holds the execution state of one strategy-4 spec: the
// value list (or tuple list for multi-term subformulas) built while
// scanning the eliminated variable's range, and the derived predicate
// resolved from it.
type specRuntime struct {
	spec *optimizer.SemiSpec

	// Collection state.
	vl       *collection.ValueList // single dyadic term
	tuples   [][]value.Value       // multiple dyadic terms: distinct projected vn tuples
	tupleSet map[string]struct{}
	total    int // elements of the range (after range filter)
	monOK    int // elements additionally satisfying the monadic terms

	// Results, valid after finish().
	resolved bool // constant outcome known
	constVal bool
	pred     collection.QuantPred // single-dyadic predicate over the vm component
}

func newSpecRuntime(spec *optimizer.SemiSpec) *specRuntime {
	rt := &specRuntime{spec: spec}
	if len(spec.Dyadic) == 1 {
		rt.vl = collection.NewValueList()
	} else if len(spec.Dyadic) > 1 {
		rt.tupleSet = make(map[string]struct{})
	}
	return rt
}

// add processes one element of the eliminated variable's range during
// the collection scan. monPassed reports whether the element satisfied
// the spec's monadic (and nested) predicates.
func (rt *specRuntime) add(tuple []value.Value, monPassed bool, dyCols []int) {
	rt.total++
	if monPassed {
		rt.monOK++
	}
	// SOME collects only filtered elements; ALL collects the whole range
	// (the monadic terms act as a global condition, counted separately).
	if !rt.spec.All && !monPassed {
		return
	}
	switch {
	case rt.vl != nil:
		rt.vl.Add(tuple[dyCols[0]])
	case rt.tupleSet != nil:
		proj := make([]value.Value, len(dyCols))
		for i, ci := range dyCols {
			proj[i] = tuple[ci]
		}
		k := value.EncodeKey(proj)
		if _, dup := rt.tupleSet[k]; !dup {
			rt.tupleSet[k] = struct{}{}
			rt.tuples = append(rt.tuples, proj)
		}
	}
}

// finish resolves the derived predicate once the eliminated variable's
// range has been fully scanned.
func (rt *specRuntime) finish() error {
	s := rt.spec
	if s.All {
		// ALL vn (mon ∧ dy) = (ALL vn mon) AND (ALL vn dy). The first
		// factor is a constant; over an empty range both factors are
		// vacuously true (Lemma 1).
		if rt.monOK != rt.total {
			rt.resolved, rt.constVal = true, false
			return nil
		}
		if s.ConstOnly() || rt.total == 0 {
			rt.resolved, rt.constVal = true, true
			return nil
		}
	} else {
		// SOME vn (mon ∧ dy): with no qualifying element the atom is
		// false; with no dyadic terms it is simply "a qualifying element
		// exists".
		qualifying := rt.monOK
		if s.ConstOnly() {
			rt.resolved, rt.constVal = true, qualifying > 0
			return nil
		}
		if qualifying == 0 {
			rt.resolved, rt.constVal = true, false
			return nil
		}
	}
	if rt.vl != nil {
		p, err := collection.MakeQuantPred(rt.vl, s.Dyadic[0].Op, s.All)
		if err != nil {
			return err
		}
		rt.pred = p
	}
	return nil
}

// Size reports how many values the resolved predicate stores — the
// paper's section 4.4 storage measure.
func (rt *specRuntime) Size() int {
	switch {
	case rt.resolved:
		return 0
	case rt.pred != nil:
		return rt.pred.Size()
	default:
		return len(rt.tuples)
	}
}

// compileSemiAtom compiles a derived atom over the remaining variable vm
// into a row predicate against vm's relation schema.
func compileSemiAtom(sa *optimizer.SemiAtom, sch *schema.RelSchema, rt *specRuntime) (rowPred, error) {
	if sa.Spec.ConstOnly() {
		return func([]value.Value, *stats.Counters) (bool, error) {
			if !rt.resolved {
				return false, fmt.Errorf("engine: spec %d used before its scan finished", sa.Spec.ID)
			}
			return rt.constVal, nil
		}, nil
	}
	cols := make([]int, len(sa.Spec.Dyadic))
	for i, d := range sa.Spec.Dyadic {
		ci, ok := sch.ColIndex(d.VmCol)
		if !ok {
			return nil, fmt.Errorf("engine: relation %s has no component %s", sch.Name, d.VmCol)
		}
		cols[i] = ci
	}
	ops := make([]value.CmpOp, len(sa.Spec.Dyadic))
	for i, d := range sa.Spec.Dyadic {
		ops[i] = d.Op
	}
	all := sa.Spec.All
	return func(tuple []value.Value, st *stats.Counters) (bool, error) {
		if rt.resolved {
			return rt.constVal, nil
		}
		if rt.pred != nil {
			st.CountComparisons(1)
			return rt.pred.Test(tuple[cols[0]]), nil
		}
		// General tuple-list evaluation for multi-term subformulas.
		for _, vnTup := range rt.tuples {
			match := true
			for i := range ops {
				st.CountComparisons(1)
				ok, err := ops[i].Apply(tuple[cols[i]], vnTup[i])
				if err != nil {
					return false, err
				}
				if !ok {
					match = false
					break
				}
			}
			if all && !match {
				return false, nil
			}
			if !all && match {
				return true, nil
			}
		}
		return all, nil
	}, nil
}
