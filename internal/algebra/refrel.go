// Package algebra implements the combination phase's data structure and
// operations: reference relations — relations whose components are
// references to database elements, one column per calculus variable —
// and the relational operations the paper evaluates logical operators
// and quantifiers with: join and Cartesian product for conjunctions,
// union for the disjunction, projection for existential quantifiers,
// and division for universal quantifiers.
package algebra

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"pascalr/internal/stats"
	"pascalr/internal/value"
)

// cancelCheckInterval is how many row operations pass between context
// checks inside the set operations; combination-phase loops over large
// intermediate results stay responsive to cancellation.
const cancelCheckInterval = 4096

// ticker checks a context every cancelCheckInterval ticks.
type ticker struct {
	ctx context.Context
	n   int
}

func (t *ticker) tick() error {
	if t.n++; t.n%cancelCheckInterval == 0 {
		return t.ctx.Err()
	}
	return nil
}

// RefRel is a set of tuples of references, with one named column per
// selection-expression variable.
type RefRel struct {
	vars   []string
	varIdx map[string]int
	rows   [][]value.Value
	set    map[string]struct{}
	st     *stats.Counters

	// distinctCache memoizes DistinctOn per column set; invalidated on
	// Add. Join-size estimation queries the same pieces repeatedly.
	distinctCache map[string]int
}

// New creates an empty reference relation with the given variable
// columns. Tuples added through Add are counted against st.
func New(vars []string, st *stats.Counters) *RefRel {
	r := &RefRel{
		vars:   append([]string(nil), vars...),
		varIdx: make(map[string]int, len(vars)),
		set:    make(map[string]struct{}),
		st:     st,
	}
	for i, v := range vars {
		if _, dup := r.varIdx[v]; dup {
			panic(fmt.Sprintf("algebra: duplicate variable column %s", v))
		}
		r.varIdx[v] = i
	}
	return r
}

// Vars returns the column variables in order.
func (r *RefRel) Vars() []string { return r.vars }

// Len returns the number of tuples.
func (r *RefRel) Len() int { return len(r.rows) }

// Rows returns the underlying tuples; callers must not modify them.
func (r *RefRel) Rows() [][]value.Value { return r.rows }

// ColIdx returns the column position of a variable.
func (r *RefRel) ColIdx(v string) (int, bool) {
	i, ok := r.varIdx[v]
	return i, ok
}

// Add inserts a tuple (copied) unless an identical tuple is present; it
// reports whether the tuple was new.
func (r *RefRel) Add(row []value.Value) bool {
	if len(row) != len(r.vars) {
		panic(fmt.Sprintf("algebra: arity mismatch: row %d vs vars %d", len(row), len(r.vars)))
	}
	k := value.EncodeKey(row)
	if _, dup := r.set[k]; dup {
		return false
	}
	r.set[k] = struct{}{}
	cp := make([]value.Value, len(row))
	copy(cp, row)
	r.rows = append(r.rows, cp)
	r.distinctCache = nil
	r.st.CountRefTuples(1, len(r.rows))
	return true
}

// Has reports whether an identical tuple is present.
func (r *RefRel) Has(row []value.Value) bool {
	_, ok := r.set[value.EncodeKey(row)]
	return ok
}

// String renders a summary for EXPLAIN and debugging.
func (r *RefRel) String() string {
	return fmt.Sprintf("refrel(%s)[%d]", strings.Join(r.vars, ","), len(r.rows))
}

// keyAt encodes the values of a row at the given column indexes.
func keyAt(row []value.Value, idx []int) string {
	dst := make([]byte, 0, 16*len(idx))
	for _, i := range idx {
		dst = value.AppendKey(dst, row[i])
	}
	return string(dst)
}

// keyAtBuf is keyAt into a reused buffer: probe loops encode one key
// per row, and map lookups via string(buf) do not allocate, so probing
// stays allocation-free regardless of the probe side's size.
func keyAtBuf(dst []byte, row []value.Value, idx []int) []byte {
	dst = dst[:0]
	for _, i := range idx {
		dst = value.AppendKey(dst, row[i])
	}
	return dst
}

// shared returns the variables common to a and b, with their column
// indexes in each, in a's column order.
func shared(a, b *RefRel) (vars []string, ai, bi []int) {
	for i, v := range a.vars {
		if j, ok := b.varIdx[v]; ok {
			vars = append(vars, v)
			ai = append(ai, i)
			bi = append(bi, j)
		}
	}
	return
}

// Join computes the natural join of a and b on their shared variables.
// With no shared variables it degenerates to the Cartesian product,
// which is exactly the standard algorithm's behaviour for conjunctions
// that do not link all variables. The context is checked periodically —
// a runaway product aborts with ctx.Err() instead of materializing.
func Join(ctx context.Context, a, b *RefRel, st *stats.Counters) (*RefRel, error) {
	tk := ticker{ctx: ctx}
	sv, ai, bi := shared(a, b)
	outVars := append([]string(nil), a.vars...)
	for _, v := range b.vars {
		if _, dup := a.varIdx[v]; !dup {
			outVars = append(outVars, v)
		}
	}
	out := New(outVars, st)
	if len(sv) == 0 {
		st.CountCartesianJoin()
		for _, ra := range a.rows {
			for _, rb := range b.rows {
				if err := tk.tick(); err != nil {
					return nil, err
				}
				out.Add(concatRows(ra, rb, b, nil))
			}
		}
		return out, nil
	}
	st.CountHashJoin()
	// Hash the smaller side on the shared key, probe with the larger.
	build, probe := a, b
	bIdx, pIdx := ai, bi
	buildIsA := true
	if b.Len() < a.Len() {
		build, probe = b, a
		bIdx, pIdx = bi, ai
		buildIsA = false
	}
	ht := make(map[string][]int, build.Len())
	kbuf := make([]byte, 0, 16*len(bIdx))
	for i, row := range build.rows {
		if err := tk.tick(); err != nil {
			return nil, err
		}
		kbuf = keyAtBuf(kbuf, row, bIdx)
		ht[string(kbuf)] = append(ht[string(kbuf)], i)
	}
	for _, prow := range probe.rows {
		st.CountProbes(1)
		if err := tk.tick(); err != nil {
			return nil, err
		}
		kbuf = keyAtBuf(kbuf, prow, pIdx)
		for _, i := range ht[string(kbuf)] {
			if err := tk.tick(); err != nil {
				return nil, err
			}
			brow := build.rows[i]
			var arow, brow2 []value.Value
			if buildIsA {
				arow, brow2 = brow, prow
			} else {
				arow, brow2 = prow, brow
			}
			out.Add(concatRows(arow, brow2, b, a))
		}
	}
	return out, nil
}

// concatRows builds an output row: all of a's columns, then b's columns
// that a does not have. aRel may be nil when no columns are shared.
func concatRows(arow, brow []value.Value, bRel, aRel *RefRel) []value.Value {
	out := make([]value.Value, 0, len(arow)+len(brow))
	out = append(out, arow...)
	for j, v := range bRel.vars {
		if aRel != nil {
			if _, dup := aRel.varIdx[v]; dup {
				continue
			}
		}
		out = append(out, brow[j])
	}
	return out
}

// Cartesian computes the Cartesian product of a and b, which must share
// no variables.
func Cartesian(ctx context.Context, a, b *RefRel, st *stats.Counters) (*RefRel, error) {
	if sv, _, _ := shared(a, b); len(sv) != 0 {
		panic(fmt.Sprintf("algebra: Cartesian with shared variables %v", sv))
	}
	return Join(ctx, a, b, st)
}

// Union computes a ∪ b; both must have the same variable set (column
// order may differ; b's rows are permuted to a's order).
func Union(ctx context.Context, a, b *RefRel, st *stats.Counters) (*RefRel, error) {
	if len(a.vars) != len(b.vars) {
		return nil, fmt.Errorf("algebra: union arity mismatch (%v vs %v)", a.vars, b.vars)
	}
	perm := make([]int, len(a.vars))
	for i, v := range a.vars {
		j, ok := b.varIdx[v]
		if !ok {
			return nil, fmt.Errorf("algebra: union variable mismatch: %s missing (%v vs %v)", v, a.vars, b.vars)
		}
		perm[i] = j
	}
	tk := ticker{ctx: ctx}
	out := New(a.vars, st)
	for _, row := range a.rows {
		if err := tk.tick(); err != nil {
			return nil, err
		}
		out.Add(row)
	}
	tmp := make([]value.Value, len(a.vars))
	for _, row := range b.rows {
		if err := tk.tick(); err != nil {
			return nil, err
		}
		for i, j := range perm {
			tmp[i] = row[j]
		}
		out.Add(tmp)
	}
	return out, nil
}

// Project keeps only the named variables (existential quantifier
// elimination), deduplicating the result.
func Project(ctx context.Context, a *RefRel, keep []string, st *stats.Counters) (*RefRel, error) {
	idx := make([]int, len(keep))
	for i, v := range keep {
		j, ok := a.varIdx[v]
		if !ok {
			return nil, fmt.Errorf("algebra: project on absent variable %s", v)
		}
		idx[i] = j
	}
	tk := ticker{ctx: ctx}
	out := New(keep, st)
	tmp := make([]value.Value, len(keep))
	for _, row := range a.rows {
		if err := tk.tick(); err != nil {
			return nil, err
		}
		for i, j := range idx {
			tmp[i] = row[j]
		}
		out.Add(tmp)
	}
	return out, nil
}

// Divide implements relational division for universal quantification:
// it returns the tuples t over a's variables minus v such that for
// every reference d in divisor, t extended with d is present in a.
//
// An empty divisor yields the projection of a onto the remaining
// variables; callers evaluating ALL over a possibly-empty range must
// fold that case out beforehand (Lemma 1), because the correct answer
// there is "all bindings", not "all bindings present in a".
func Divide(ctx context.Context, a *RefRel, v string, divisor []value.Value, st *stats.Counters) (*RefRel, error) {
	vi, ok := a.varIdx[v]
	if !ok {
		return nil, fmt.Errorf("algebra: divide on absent variable %s", v)
	}
	restVars := make([]string, 0, len(a.vars)-1)
	restIdx := make([]int, 0, len(a.vars)-1)
	for i, av := range a.vars {
		if i != vi {
			restVars = append(restVars, av)
			restIdx = append(restIdx, i)
		}
	}
	// Deduplicate the divisor.
	divSet := make(map[string]struct{}, len(divisor))
	for _, d := range divisor {
		divSet[value.EncodeKey([]value.Value{d})] = struct{}{}
	}
	need := len(divSet)

	// Group rows by the remaining variables and count distinct divisor
	// members seen per group.
	type group struct {
		row  []value.Value
		seen map[string]struct{}
	}
	tk := ticker{ctx: ctx}
	groups := make(map[string]*group)
	order := make([]string, 0)
	for _, row := range a.rows {
		if err := tk.tick(); err != nil {
			return nil, err
		}
		gk := keyAt(row, restIdx)
		g := groups[gk]
		if g == nil {
			rest := make([]value.Value, len(restIdx))
			for i, j := range restIdx {
				rest[i] = row[j]
			}
			g = &group{row: rest, seen: make(map[string]struct{})}
			groups[gk] = g
			order = append(order, gk)
		}
		dk := value.EncodeKey([]value.Value{row[vi]})
		if _, isDiv := divSet[dk]; isDiv {
			g.seen[dk] = struct{}{}
		}
	}
	out := New(restVars, st)
	for _, gk := range order {
		g := groups[gk]
		if len(g.seen) == need {
			out.Add(g.row)
		}
	}
	return out, nil
}

// FromRefs builds a single-column reference relation from a reference
// list — the bridge from collection-phase structures (single lists,
// range lists) into the combination phase.
func FromRefs(v string, refs []value.Value, st *stats.Counters) *RefRel {
	out := New([]string{v}, st)
	row := make([]value.Value, 1)
	for _, ref := range refs {
		row[0] = ref
		out.Add(row)
	}
	return out
}

// FromPairs builds a two-column reference relation from an indirect
// join's pairs.
func FromPairs(lv, rv string, pairs [][2]value.Value, st *stats.Counters) *RefRel {
	out := New([]string{lv, rv}, st)
	row := make([]value.Value, 2)
	for _, p := range pairs {
		row[0], row[1] = p[0], p[1]
		out.Add(row)
	}
	return out
}

// DistinctOn returns the number of distinct value combinations of the
// named columns, for join-size estimation. Absent columns yield 0.
// Results are memoized until the next Add.
func (r *RefRel) DistinctOn(vars []string) int {
	ck := strings.Join(vars, ",")
	if d, ok := r.distinctCache[ck]; ok {
		return d
	}
	idx := make([]int, len(vars))
	for i, v := range vars {
		j, ok := r.varIdx[v]
		if !ok {
			return 0
		}
		idx[i] = j
	}
	seen := make(map[string]struct{}, len(r.rows))
	for _, row := range r.rows {
		seen[keyAt(row, idx)] = struct{}{}
	}
	if r.distinctCache == nil {
		r.distinctCache = make(map[string]int)
	}
	r.distinctCache[ck] = len(seen)
	return len(seen)
}

// EstimateJoinSize predicts |a ⋈ b| from the relations' exact sizes and
// the distinct counts of their shared variables: the standard
// |a|·|b|/max(d_a, d_b) equi-join estimate, degenerating to the full
// cross product when no variable is shared. The second result reports
// whether the pair shares variables (a hash join vs a Cartesian
// product).
func EstimateJoinSize(a, b *RefRel) (float64, bool) {
	sv, _, _ := shared(a, b)
	prod := float64(a.Len()) * float64(b.Len())
	if len(sv) == 0 {
		return prod, false
	}
	da, db := a.DistinctOn(sv), b.DistinctOn(sv)
	d := da
	if db > d {
		d = db
	}
	if d == 0 {
		return 0, true // one side empty: the join is empty
	}
	return prod / float64(d), true
}

// SortedKeys renders the tuples as sorted encoded strings; used by tests
// to compare contents order-independently.
func (r *RefRel) SortedKeys() []string {
	keys := make([]string, 0, len(r.rows))
	for k := range r.set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
