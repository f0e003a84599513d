package engine

import (
	"fmt"
	"strings"

	"pascalr/internal/calculus"
	"pascalr/internal/colbatch"
	"pascalr/internal/collection"
	"pascalr/internal/optimizer"
	"pascalr/internal/schema"
	"pascalr/internal/stats"
	"pascalr/internal/value"
)

// The predicate compiler. Range filters, monadic atoms and derived
// strategy-4 atoms all compile, once per plan, to bulk predicates over
// columnar batches (internal/colbatch): a predicate clears the
// selection bits of the rows that fail, and chains combine with
// bitwise AND/OR/AND-NOT. No predicate reconstructs a row; each reads
// only the columns it declares, which is what lets every scan
// materialize just the union of its tasks' footprints.
//
// The counter discipline is the paper's tuple-at-a-time one, kept
// exactly: a Cmp over a selection of k rows counts k comparisons, a
// chain evaluates (and counts) predicate j only over the rows
// predicates 0..j-1 kept, Or evaluates disjunct k only over rows no
// earlier disjunct admitted, a derived atom counts one comparison per
// selected row (none once its outcome is resolved to a constant), and a
// multi-term tuple list counts the comparisons of its per-row
// early-exit loop. enginetest's counters.golden, recorded from the
// tuple-at-a-time evaluator, pins it.

// batchPred evaluates one predicate in bulk over a batch, clearing the
// selection bits of rows that fail and counting into st. cols lists
// the column indexes run reads; the scan materializes only the union
// of its tasks' footprints into the batch — the projection pushdown.
type batchPred struct {
	run  func(b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) error
	cols []int
}

// unionPredCols merges the column footprints of predicate chains.
func unionPredCols(chains ...[]batchPred) []int {
	var cols []int
	for _, preds := range chains {
		for _, p := range preds {
			cols = append(cols, p.cols...)
		}
	}
	return cols
}

// evalPreds applies a predicate chain to sel: predicate j sees (and
// counts) only the rows predicates 0..j-1 kept.
func evalPreds(preds []batchPred, b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) error {
	for _, p := range preds {
		if sel.Empty() {
			return nil // nothing left to evaluate (or count)
		}
		if err := p.run(b, sel, st); err != nil {
			return err
		}
	}
	return nil
}

// constPred compiles "col[ci] op rhs" into a bulk predicate over the
// batch's column vector: FilterOrdBits over the raw ordinals of an
// int-backed column, FilterStrBits over the strings of a string column.
// The column's kind is known from the schema, so the constant is
// type-checked here, at compile time, and no kernel has a per-row kind
// dispatch or an error path. A mismatched constant is a planning error;
// calculus.Check rejects every such comparison first
// (schema.Type.Comparable), which TestComparableImpliesCompilable holds
// the two to, both ways.
func constPred(ci int, op value.CmpOp, rhs value.Value, sch *schema.RelSchema) (batchPred, error) {
	if err := checkOperand(ci, rhs, sch); err != nil {
		return batchPred{}, err
	}
	if rhs.Kind() == value.KindString {
		r := rhs.AsString()
		return batchPred{cols: []int{ci}, run: func(b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) error {
			st.CountComparisons(sel.Count())
			op.FilterStrBits(b.Strs(ci), r, sel.Words())
			return nil
		}}, nil
	}
	r := rhs.Ord()
	return batchPred{cols: []int{ci}, run: func(b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) error {
		st.CountComparisons(sel.Count())
		op.FilterOrdBits(b.Ords(ci), r, sel.Words())
		return nil
	}}, nil
}

// checkOperand type-checks a value compared with column ci, so that
// kernels compare raw ordinals or strings.
func checkOperand(ci int, v value.Value, sch *schema.RelSchema) error {
	col := sch.Cols[ci]
	if k := col.Type.ValueKind(); v.Kind() != k {
		return fmt.Errorf("engine: cannot compare %s column %s with %s value", k, col.Name, v.Kind())
	}
	if v.Kind() == value.KindEnum && v.EnumType() != col.Type.Name {
		return fmt.Errorf("engine: cannot compare enum %s column %s with enum %s value", col.Type.Name, col.Name, v.EnumType())
	}
	return nil
}

// compileMonadic compiles a monadic join term over v into a bulk
// predicate. Field-versus-constant terms — the common case — go
// through constPred, one (compile-time) kind dispatch per column
// instead of per row; field-versus-field terms run a per-selected-row
// loop over the two columns' ordinals or strings.
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
	if (lConst && lc.Val.Kind() == value.KindRef) || (rConst && rc.Val.Kind() == value.KindRef) {
		// A reference value does not name its relation's schema, so it
		// cannot be checked against a reference column's type; Check
		// refuses such a literal for the same reason.
		return batchPred{}, fmt.Errorf("engine: cannot type the reference constant in %s", c)
	}
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
		lt, rt := sch.Cols[li].Type, sch.Cols[ri].Type
		if !lt.Comparable(rt) {
			// Same compile-time discipline as constPred.
			return batchPred{}, fmt.Errorf("engine: cannot compare %s column %s with %s column %s", lt, sch.Cols[li].Name, rt, sch.Cols[ri].Name)
		}
		if lt.ValueKind() == value.KindString {
			return batchPred{cols: []int{li, ri}, run: func(b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) error {
				st.CountComparisons(sel.Count())
				lcol, rcol := b.Strs(li), b.Strs(ri)
				return sel.Filter(func(i int) (bool, error) {
					return op.Holds(strings.Compare(lcol[i], rcol[i])), nil
				})
			}}, nil
		}
		return batchPred{cols: []int{li, ri}, run: func(b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) error {
			st.CountComparisons(sel.Count())
			lcol, rcol := b.Ords(li), b.Ords(ri)
			return sel.Filter(func(i int) (bool, error) {
				return op.HoldsOrd(lcol[i], rcol[i]), nil
			})
		}}, nil
	case lConst && rConst:
		// Decided once, still counted once per row reaching it.
		ok, err := op.Apply(lc.Val, rc.Val)
		if err != nil {
			return batchPred{}, err
		}
		return constOutcome(ok, true), nil
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
		return constOutcome(g.Val, false), nil
	case *calculus.Cmp:
		return compileMonadic(g, fv, sch)
	case *calculus.Not:
		sub, err := compileFilter(g.F, fv, sch)
		if err != nil {
			return batchPred{}, err
		}
		return batchPred{cols: sub.cols, run: func(b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) error {
			var tmp colbatch.Bitmap
			tmp.CopyFrom(sel)
			if err := sub.run(b, &tmp, st); err != nil {
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
		return batchPred{cols: unionPredCols(subs), run: func(b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) error {
			return evalPreds(subs, b, sel, st)
		}}, nil
	case *calculus.Or:
		subs, err := compileFilters(g.Fs, fv, sch)
		if err != nil {
			return batchPred{}, err
		}
		return batchPred{cols: unionPredCols(subs), run: func(b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) error {
			var acc, remaining, m colbatch.Bitmap
			acc.ClearAll(sel.Len())
			remaining.CopyFrom(sel)
			for _, s := range subs {
				if remaining.Empty() {
					break
				}
				m.CopyFrom(&remaining)
				if err := s.run(b, &m, st); err != nil {
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
	vl     *collection.ValueList // single dyadic term
	tuples *rowSet               // multiple dyadic terms: distinct projected vn tuples
	total  int                   // elements of the range (after range filter)
	monOK  int                   // elements additionally satisfying the monadic terms

	// Results, valid after finish().
	done     bool
	resolved bool // constant outcome known
	constVal bool
	pred     collection.QuantPred // single-dyadic predicate over the vm component
}

// newSpecRuntime prepares a spec's collection state, lent by ws; sch is
// the eliminated variable's relation schema, whose column fixes the
// kind of a single-term spec's value list.
func newSpecRuntime(spec *optimizer.SemiSpec, sch *schema.RelSchema, ws *workspace) (*specRuntime, error) {
	rt := &specRuntime{spec: spec}
	if len(spec.Dyadic) == 1 {
		ci, ok := sch.ColIndex(spec.Dyadic[0].VnCol)
		if !ok {
			return nil, fmt.Errorf("engine: relation %s has no component %s", sch.Name, spec.Dyadic[0].VnCol)
		}
		t := sch.Cols[ci].Type
		rt.vl = ws.coll.ValueList(t.ValueKind(), t.Name)
	} else if len(spec.Dyadic) > 1 {
		rt.tuples = ws.rowSet(len(spec.Dyadic))
	}
	return rt, nil
}

// add feeds the selected rows of one batch of the eliminated variable's
// range, in ascending order; mon marks the rows that also satisfied the
// spec's monadic (and nested) predicates. It reads only dyCols. A value
// list takes the column's raw ordinals, or its strings.
func (rt *specRuntime) add(b *colbatch.Batch, sel, mon *colbatch.Bitmap, dyCols []int) {
	// SOME collects only filtered elements; ALL collects the whole range
	// (the monadic terms act as a global condition, counted separately).
	feed, n := sel, sel.Count()
	rt.total += n
	qualifying := mon.Count()
	rt.monOK += qualifying
	if !rt.spec.All {
		feed, n = mon, qualifying
	}
	switch {
	case rt.vl != nil:
		ci := dyCols[0]
		rt.vl.Reserve(n)
		if rt.vl.Kind() == value.KindString {
			col := b.Strs(ci)
			feed.Do(func(i int) bool {
				rt.vl.AddString(col[i])
				return true
			})
			return
		}
		col := b.Ords(ci)
		feed.Do(func(i int) bool {
			rt.vl.AddOrd(col[i])
			return true
		})
	case rt.tuples != nil:
		proj := make([]value.Value, len(dyCols))
		feed.Do(func(i int) bool {
			for k, ci := range dyCols {
				proj[k] = b.ColVal(ci, i)
			}
			rt.tuples.add(proj, b.Len())
			return true
		})
	}
}

// finish resolves the derived predicate once the eliminated variable's
// range has been fully scanned.
func (rt *specRuntime) finish() error {
	rt.done = true
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
	case rt.vl != nil:
		return rt.pred.Size()
	default:
		return rt.tuples.n
	}
}

// compileSemiAtom compiles a derived atom over the remaining variable vm
// into a bulk predicate against vm's relation schema. Which form the
// atom takes is known only once the spec's scan finished, so the first
// batch that reaches it builds the kernel: a resolved outcome keeps or
// clears the whole selection (counting nothing); a min/max or
// singleton bound is constPred's kernel; =SOME and <>ALL filter the
// column by (non-)membership; the constant decision of =ALL or <>SOME
// over several values counts one comparison per row; a multi-term
// tuple list runs its per-row early-exit loop over the term columns.
func compileSemiAtom(sa *optimizer.SemiAtom, sch *schema.RelSchema, rt *specRuntime) (batchPred, error) {
	cols := make([]int, len(sa.Spec.Dyadic))
	for i, d := range sa.Spec.Dyadic {
		ci, ok := sch.ColIndex(d.VmCol)
		if !ok {
			return batchPred{}, fmt.Errorf("engine: relation %s has no component %s", sch.Name, d.VmCol)
		}
		cols[i] = ci
	}
	var kernel batchPred
	build := func() (batchPred, error) {
		q := rt.pred
		switch {
		case !rt.done:
			return batchPred{}, fmt.Errorf("engine: spec %d used before its scan finished", sa.Spec.ID)
		case rt.resolved:
			return constOutcome(rt.constVal, false), nil
		case rt.vl == nil:
			return tupleListPred(rt, cols, sch)
		case q.Bound.IsValid():
			return constPred(cols[0], q.Op, q.Bound, sch)
		case q.Set != nil:
			return membershipPred(q.Set, q.Op == value.OpEq, cols[0], sch)
		default:
			return constOutcome(q.Const, true), nil
		}
	}
	return batchPred{cols: cols, run: func(b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) error {
		if kernel.run == nil {
			k, err := build()
			if err != nil {
				return err
			}
			kernel = k
		}
		return kernel.run(b, sel, st)
	}}, nil
}

// constOutcome keeps or clears the whole selection. A counted outcome
// is a decision made per row, one comparison each.
func constOutcome(keep, counted bool) batchPred {
	return batchPred{run: func(_ *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) error {
		if counted {
			st.CountComparisons(sel.Count())
		}
		if !keep {
			sel.ClearAll(sel.Len())
		}
		return nil
	}}
}

// membershipPred filters column ci by membership in vl (member) or
// non-membership (!member), one comparison per selected row, probing
// the list's own set: an int-backed column with its raw ordinals, a
// string column with its strings. The list has one kind, so one check
// against the column's type covers every value.
func membershipPred(vl *collection.ValueList, member bool, ci int, sch *schema.RelSchema) (batchPred, error) {
	if err := checkOperand(ci, vl.Min(), sch); err != nil {
		return batchPred{}, err
	}
	if vl.Kind() == value.KindString {
		return batchPred{cols: []int{ci}, run: func(b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) error {
			st.CountComparisons(sel.Count())
			col := b.Strs(ci)
			return sel.Filter(func(i int) (bool, error) {
				return vl.HasString(col[i]) == member, nil
			})
		}}, nil
	}
	return batchPred{cols: []int{ci}, run: func(b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) error {
		st.CountComparisons(sel.Count())
		col := b.Ords(ci)
		return sel.Filter(func(i int) (bool, error) {
			return vl.HasOrd(col[i]) == member, nil
		})
	}}, nil
}

// tupleListPred evaluates a multi-term derived atom against the spec's
// distinct vn tuples, in insertion order: per selected row, a tuple
// counts one comparison per term it tests and stops at the first
// failing term; ALL stops at the first tuple that fails, SOME at the
// first that matches. Each term compares its column's ordinals or
// strings with the tuple's value, whose kind is checked here, once.
func tupleListPred(rt *specRuntime, cols []int, sch *schema.RelSchema) (batchPred, error) {
	tuples, all := rt.tuples, rt.spec.All
	ops := make([]value.CmpOp, len(cols))
	str := make([]bool, len(cols))
	for i, d := range rt.spec.Dyadic {
		ops[i] = d.Op
		str[i] = sch.Cols[cols[i]].Type.ValueKind() == value.KindString
		if tuples.n > 0 {
			if err := checkOperand(cols[i], tuples.row(0)[i], sch); err != nil {
				return batchPred{}, err
			}
		}
	}
	return batchPred{cols: cols, run: func(b *colbatch.Batch, sel *colbatch.Bitmap, st *stats.Counters) error {
		n := 0
		err := sel.Filter(func(r int) (bool, error) {
			for k := 0; k < tuples.n; k++ {
				tup := tuples.row(k)
				match := true
				for i, ci := range cols {
					n++
					if str[i] {
						match = ops[i].Holds(strings.Compare(b.Strs(ci)[r], tup[i].AsString()))
					} else {
						match = ops[i].HoldsOrd(b.Ords(ci)[r], tup[i].Ord())
					}
					if !match {
						break
					}
				}
				if all != match {
					return match, nil
				}
			}
			return all, nil
		})
		st.CountComparisons(n)
		return err
	}}, nil
}
