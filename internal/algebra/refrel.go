// Package algebra implements the combination phase's data structure and
// operations: reference relations — relations whose components are
// references to database elements, one column per calculus variable —
// and the relational operations the paper evaluates logical operators
// and quantifiers with: join and Cartesian product for conjunctions,
// union for the disjunction, projection for existential quantifiers,
// and division for universal quantifiers.
//
// A reference is held as its packed int64 word (value.Value.Ord of a
// reference: relation id, generation and slot), and a reference
// relation is one flat []int64 with stride equal to its arity.
// Deduplication, join tables and division groups all key on those
// words, through one open-addressing set of row hashes (tupleSet); a
// hash match is confirmed by comparing the words, so a collision costs
// a comparison, never a lost row.
//
// A relation lent by a Workspace belongs to it, and so does every
// relation an operation derives from it and every scratch table the
// operation builds: Workspace.Release takes them all back at once.
package algebra

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"pascalr/internal/recycle"
	"pascalr/internal/stats"
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

// rowHash hashes one row of packed words. It is a variable so a test
// can force every row onto one hash and exercise the word comparison
// that confirms each match.
var rowHash = hashRow

func hashRow(row []int64) uint64 {
	h := uint64(len(row)) * 0x9E3779B97F4A7C15
	for _, w := range row {
		h ^= uint64(w)
		h *= 0xFF51AFD7ED558CCD
		h ^= h >> 32
	}
	h *= 0xC4CEB9FE1A85EC53
	return h ^ h>>29
}

// tupleSet is a set of fixed-width rows of packed words, kept flat in
// insertion order and found through an open-addressing table of row
// hashes.
type tupleSet struct {
	w    int     // words per row
	data []int64 // row k is data[k*w : (k+1)*w]
	n    int     // rows stored (a zero-width set holds at most one)
	// table holds tag<<32 | row+1 per occupied slot, 0 when empty; the
	// tag is the high half of the row's hash and also picks its home
	// slot, so growing rehashes without the rows.
	table []uint64
	peak  int // the most rows held or sized for since the last trim
}

// row returns stored row k. The slice aliases the set and must not be
// modified.
func (s *tupleSet) row(k int) []int64 {
	o := k * s.w
	return s.data[o : o+s.w : o+s.w]
}

// reset empties the set for rows of w words, keeping its memory.
func (s *tupleSet) reset(w int) {
	s.peak = max(s.peak, s.n)
	s.w, s.n, s.data = w, 0, s.data[:0]
	clear(s.table)
}

// resetFor empties the set for at most n rows of w words, sizing and
// clearing only the table slots n rows need: a scratch set reused for
// inputs of very different sizes costs each use its own size.
func (s *tupleSet) resetFor(w, n int) {
	s.peak = max(s.peak, s.n, n)
	s.w, s.n, s.data = w, 0, s.data[:0]
	s.table = recycle.Resize(s.table, tableSize(n))
	clear(s.table)
}

// scrub poisons a returned set's memory under recycle.Poison.
func (s *tupleSet) scrub() {
	recycle.Scrub(s.data, recycle.Word)
	recycle.Scrub(s.table, ^uint64(0))
}

// trim drops the memory far beyond the most rows the set held or was
// sized for since the last trim (recycle.Keep), and leaves the set
// empty until its next reset.
func (s *tupleSet) trim() {
	rows := max(s.peak, s.n)
	s.data = recycle.Keep(s.data, rows*s.w)
	s.table = recycle.Keep(s.table, 2*rows)
	s.peak, s.n = 0, 0
}

// reserve sizes the set for n more rows, so a relation built from a
// list of known length grows nothing.
func (s *tupleSet) reserve(n int) {
	if size := tableSize(s.n + n); size > len(s.table) {
		s.rehash(size)
	}
	s.data = slices.Grow(s.data, n*s.w)
}

// tableSize is the table a set of n rows needs: at most half full.
func tableSize(n int) int {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	return size
}

// lookup returns the index of row, whose hash tag is tag, or -1 and
// the empty slot where row belongs. The table must not be empty.
func (s *tupleSet) lookup(row []int64, tag uint32) (int, uint32) {
	mask := uint32(len(s.table) - 1)
	p := tag & mask
	for ; s.table[p] != 0; p = (p + 1) & mask {
		e := s.table[p]
		if k := int(uint32(e)) - 1; uint32(e>>32) == tag && slices.Equal(s.row(k), row) {
			return k, p
		}
	}
	return -1, p
}

// find returns the index of row, or -1 when the set does not hold it.
func (s *tupleSet) find(row []int64) int {
	if s.n == 0 {
		return -1
	}
	k, _ := s.lookup(row, uint32(rowHash(row)>>32))
	return k
}

// add copies row into the set unless an equal row is already there. It
// returns the row's index and whether it was new.
func (s *tupleSet) add(row []int64) (int, bool) {
	if len(s.table) == 0 {
		s.table = make([]uint64, 16)
	} else if 2*(s.n+1) > len(s.table) {
		s.rehash(2 * len(s.table))
	}
	tag := uint32(rowHash(row) >> 32)
	k, p := s.lookup(row, tag)
	if k >= 0 {
		return k, false
	}
	s.table[p] = uint64(tag)<<32 | uint64(s.n+1)
	s.data = append(s.data, row...)
	s.n++
	return s.n - 1, true
}

// rehash rebuilds the table at the given size.
func (s *tupleSet) rehash(size int) {
	old := s.table
	s.table = make([]uint64, size)
	mask := uint32(size - 1)
	for _, e := range old {
		if e == 0 {
			continue
		}
		p := uint32(e>>32) & mask
		for s.table[p] != 0 {
			p = (p + 1) & mask
		}
		s.table[p] = e
	}
}

// RefRel is a set of tuples of packed references, with one named column
// per selection-expression variable, in insertion order.
type RefRel struct {
	vars   []string
	varIdx map[string]int
	set    tupleSet
	st     *stats.Counters
	ws     *Workspace // lender of the relation and of what derives from it

	// distinctCache memoizes DistinctOn per column set; invalidated on
	// Add. Join-size estimation queries the same pieces repeatedly.
	distinctCache map[string]int
}

// init sets an empty relation's columns and sink.
func (r *RefRel) init(vars []string, st *stats.Counters) {
	r.vars = append(r.vars[:0], vars...)
	r.set.reset(len(vars))
	r.st = st
	for i, v := range vars {
		if _, dup := r.varIdx[v]; dup {
			panic(fmt.Sprintf("algebra: duplicate variable column %s", v))
		}
		r.varIdx[v] = i
	}
}

// Vars returns the column variables in order.
func (r *RefRel) Vars() []string { return r.vars }

// Len returns the number of tuples.
func (r *RefRel) Len() int { return r.set.n }

// Row returns tuple k (0 <= k < Len, in insertion order) as packed
// references, one per column. The slice aliases the relation and must
// not be modified.
func (r *RefRel) Row(k int) []int64 { return r.set.row(k) }

// ColIdx returns the column position of a variable.
func (r *RefRel) ColIdx(v string) (int, bool) {
	i, ok := r.varIdx[v]
	return i, ok
}

// Add inserts a tuple of packed references (copied) unless an identical
// tuple is present; it reports whether the tuple was new.
func (r *RefRel) Add(row []int64) bool {
	if len(row) != len(r.vars) {
		panic(fmt.Sprintf("algebra: arity mismatch: row %d vs vars %d", len(row), len(r.vars)))
	}
	if _, isNew := r.set.add(row); !isNew {
		return false
	}
	if len(r.distinctCache) > 0 {
		clear(r.distinctCache)
	}
	r.st.CountRefTuples(1, r.set.n)
	return true
}

// String renders a summary for EXPLAIN and debugging.
func (r *RefRel) String() string {
	return fmt.Sprintf("refrel(%s)[%d]", strings.Join(r.vars, ","), r.set.n)
}

// gather copies the words of row at the given column indexes into dst.
func gather(dst, row []int64, idx []int) []int64 {
	for k, i := range idx {
		dst[k] = row[i]
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

// Join computes the natural join of a and b on their shared variables:
// an output row is all of a's columns, then b's columns that a does
// not have. With no shared variables it degenerates to the Cartesian
// product (a's rows outer, b's inner), which is exactly the standard
// algorithm's behaviour for conjunctions that do not link all
// variables. Otherwise the smaller side is hashed on the shared key and
// the larger probes it: rows come out in probe order, and per probe row
// in the build side's insertion order. The context is checked
// periodically — a runaway product aborts with ctx.Err() instead of
// materializing.
func Join(ctx context.Context, a, b *RefRel, st *stats.Counters) (*RefRel, error) {
	tk := ticker{ctx: ctx}
	sv, ai, bi := shared(a, b)
	outVars := append([]string(nil), a.vars...)
	var bExtra []int // b's columns a does not have
	for j, v := range b.vars {
		if _, dup := a.varIdx[v]; !dup {
			outVars = append(outVars, v)
			bExtra = append(bExtra, j)
		}
	}
	out := a.ws.New(outVars, st)
	buf := make([]int64, len(outVars))
	emit := func(arow, brow []int64) {
		copy(buf, arow)
		gather(buf[len(arow):], brow, bExtra)
		out.Add(buf)
	}
	if len(sv) == 0 {
		st.CountCartesianJoin()
		for i := 0; i < a.Len(); i++ {
			ra := a.Row(i)
			for j := 0; j < b.Len(); j++ {
				if err := tk.tick(); err != nil {
					return nil, err
				}
				emit(ra, b.Row(j))
			}
		}
		return out, nil
	}
	st.CountHashJoin()
	build, probe := a, b
	bIdx, pIdx := ai, bi
	buildIsA := true
	if b.Len() < a.Len() {
		build, probe = b, a
		bIdx, pIdx = bi, ai
		buildIsA = false
	}
	// Chain the build rows by key hash: head holds bucket -> row+1,
	// next row -> row+1 of the bucket's next row. Inserting in reverse
	// leaves every chain in insertion order.
	nb := 1
	for nb < build.Len() {
		nb <<= 1
	}
	mask := uint64(nb - 1)
	head, next := a.ws.chains(nb, build.Len())
	key := make([]int64, len(bIdx))
	for i := build.Len() - 1; i >= 0; i-- {
		if err := tk.tick(); err != nil {
			return nil, err
		}
		h := rowHash(gather(key, build.Row(i), bIdx)) & mask
		next[i] = head[h]
		head[h] = int32(i + 1)
	}
	for i := 0; i < probe.Len(); i++ {
		st.CountProbes(1)
		if err := tk.tick(); err != nil {
			return nil, err
		}
		prow := probe.Row(i)
		gather(key, prow, pIdx)
		for e := head[rowHash(key)&mask]; e != 0; e = next[e-1] {
			brow := build.Row(int(e - 1))
			if !keyMatch(brow, bIdx, key) {
				continue
			}
			if err := tk.tick(); err != nil {
				return nil, err
			}
			if buildIsA {
				emit(brow, prow)
			} else {
				emit(prow, brow)
			}
		}
	}
	return out, nil
}

// keyMatch reports whether row's words at idx equal key.
func keyMatch(row []int64, idx []int, key []int64) bool {
	for k, i := range idx {
		if row[i] != key[k] {
			return false
		}
	}
	return true
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
// order may differ; b's rows are permuted to a's order). Rows keep
// their first occurrence's position: a's rows, then b's new ones.
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
	out := a.ws.New(a.vars, st)
	for i := 0; i < a.Len(); i++ {
		if err := tk.tick(); err != nil {
			return nil, err
		}
		out.Add(a.Row(i))
	}
	tmp := make([]int64, len(a.vars))
	for i := 0; i < b.Len(); i++ {
		if err := tk.tick(); err != nil {
			return nil, err
		}
		out.Add(gather(tmp, b.Row(i), perm))
	}
	return out, nil
}

// Project keeps only the named variables (existential quantifier
// elimination), deduplicating the result in first-occurrence order.
func Project(ctx context.Context, a *RefRel, keep []string, st *stats.Counters) (*RefRel, error) {
	idx, err := a.colsOf(keep)
	if err != nil {
		return nil, fmt.Errorf("algebra: project on %w", err)
	}
	tk := ticker{ctx: ctx}
	out := a.ws.New(keep, st)
	tmp := make([]int64, len(keep))
	for i := 0; i < a.Len(); i++ {
		if err := tk.tick(); err != nil {
			return nil, err
		}
		out.Add(gather(tmp, a.Row(i), idx))
	}
	return out, nil
}

// colsOf returns the column indexes of vars.
func (r *RefRel) colsOf(vars []string) ([]int, error) {
	idx := make([]int, len(vars))
	for i, v := range vars {
		j, ok := r.varIdx[v]
		if !ok {
			return nil, fmt.Errorf("absent variable %s", v)
		}
		idx[i] = j
	}
	return idx, nil
}

// Divide implements relational division for universal quantification:
// it returns the tuples t over a's variables minus v such that for
// every reference d in divisor, t extended with d is present in a. The
// result is in the order of each t's first occurrence in a.
//
// An empty divisor yields the projection of a onto the remaining
// variables; callers evaluating ALL over a possibly-empty range must
// fold that case out beforehand (Lemma 1), because the correct answer
// there is "all bindings", not "all bindings present in a".
func Divide(ctx context.Context, a *RefRel, v string, divisor []int64, st *stats.Counters) (*RefRel, error) {
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
	// The distinct divisor members, numbered.
	divs, groups, seen, hits := a.ws.divideSets(len(divisor), len(restIdx), a.Len())
	divs.reserve(len(divisor))
	for i := range divisor {
		divs.add(divisor[i : i+1])
	}
	// Group a's rows by the remaining variables and count the distinct
	// divisor members seen per group, through the set of (group,
	// member) pairs; hits counts the distinct members per group.
	tk := ticker{ctx: ctx}
	rest := make([]int64, len(restIdx))
	var pair [2]int64
	for i := 0; i < a.Len(); i++ {
		if err := tk.tick(); err != nil {
			return nil, err
		}
		row := a.Row(i)
		g, isNew := groups.add(gather(rest, row, restIdx))
		if isNew {
			hits = append(hits, 0)
		}
		if d := divs.find(row[vi : vi+1]); d >= 0 {
			pair[0], pair[1] = int64(g), int64(d)
			if _, isNew := seen.add(pair[:]); isNew {
				hits[g]++
			}
		}
	}
	out := a.ws.New(restVars, st)
	for g, n := range hits {
		if n == divs.n {
			out.Add(groups.row(g))
		}
	}
	a.ws.keepCounts(hits)
	return out, nil
}

// FromRefs builds a single-column reference relation from a list of
// packed references — the bridge from collection-phase structures
// (single lists, range lists) into the combination phase.
func (w *Workspace) FromRefs(v string, refs []int64, st *stats.Counters) *RefRel {
	out := w.New([]string{v}, st)
	out.set.reserve(len(refs))
	for i := range refs {
		out.Add(refs[i : i+1])
	}
	return out
}

// FromPairs builds a two-column reference relation from an indirect
// join's packed reference pairs.
func (w *Workspace) FromPairs(lv, rv string, pairs [][2]int64, st *stats.Counters) *RefRel {
	out := w.New([]string{lv, rv}, st)
	out.set.reserve(len(pairs))
	for i := range pairs {
		out.Add(pairs[i][:])
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
	idx, err := r.colsOf(vars)
	if err != nil {
		return 0
	}
	seen := r.ws.distinctSet(len(idx), r.Len())
	tmp := make([]int64, len(idx))
	for i := 0; i < r.Len(); i++ {
		seen.add(gather(tmp, r.Row(i), idx))
	}
	if r.distinctCache == nil {
		r.distinctCache = make(map[string]int)
	}
	r.distinctCache[ck] = seen.n
	return seen.n
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
