// Selectivity estimation for the cost-based combination phase. The
// paper's processor picks its scan order statically (spec priority,
// prefix right-to-left, declaration order); section 5 names smarter
// ordering as the limiting factor once relations grow skewed. The
// estimator holds the per-relation statistics — cardinality, per-column
// histograms — that the planner's greedy ordering and the optimizer's
// extraction gate consult.
//
// Estimates read the column histograms first (exact frequency tables or
// equi-depth buckets, see histogram.go) and fall back to the classic
// System R formulas — 1/distinct for equality against a constant,
// linear interpolation over [min, max] for ordered comparisons,
// 1/max(distinct_l, distinct_r) for equi-joins, fixed fractions where
// nothing better is known. Uniform() returns a view restricted to the
// System R formulas, for measuring what the histograms buy.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"pascalr/internal/value"
)

// Default selectivities when no statistic applies (System R's magic
// numbers, still the standard fallbacks).
const (
	DefaultEqSel    = 0.1       // equality with no distinct count
	DefaultRangeSel = 1.0 / 3.0 // ordered comparison with no min/max
	DefaultNeSel    = 0.9       // inequality (<>)
	DefaultSemiSel  = 0.5       // derived (value-list) predicates
)

// Estimator answers cardinality and selectivity questions from table
// statistics. A nil Estimator answers every question with its default,
// so call sites need no guards.
type Estimator struct {
	tables map[string]*TableStats
	// uniform disables the histogram reads, restricting answers to the
	// System R formulas over distinct counts and extrema.
	uniform bool
}

// NewEstimator creates an empty estimator.
func NewEstimator() *Estimator {
	return &Estimator{tables: make(map[string]*TableStats)}
}

// AddTable registers (or replaces) one relation's statistics.
func (e *Estimator) AddTable(t *TableStats) {
	e.tables[t.Name] = t
}

// Uniform returns a view of the same statistics restricted to the
// uniformity assumptions (1/distinct, min/max interpolation) — the
// estimator's behavior before histograms, kept for comparison
// benchmarks and tests.
func (e *Estimator) Uniform() *Estimator {
	if e == nil {
		return nil
	}
	return &Estimator{tables: e.tables, uniform: true}
}

// Table returns the named relation's statistics, or nil.
func (e *Estimator) Table(rel string) *TableStats {
	if e == nil {
		return nil
	}
	return e.tables[rel]
}

// Card returns the estimated cardinality of a relation; unknown
// relations estimate as 1 so products stay meaningful.
func (e *Estimator) Card(rel string) float64 {
	if t := e.Table(rel); t != nil {
		return float64(t.Rows())
	}
	return 1
}

// DistinctValues returns the number of distinct values of rel.col, or 0
// when unknown.
func (e *Estimator) DistinctValues(rel, col string) float64 {
	if cs := e.Table(rel).Col(col); cs != nil {
		return float64(cs.DistinctCount())
	}
	return 0
}

// SelectivityConst estimates the fraction of rel's tuples whose column
// satisfies "col op c". Histogram-backed columns answer from their
// frequency tables or buckets; otherwise the System R formulas apply.
func (e *Estimator) SelectivityConst(rel, col string, op value.CmpOp, c value.Value) float64 {
	var cs ColumnStats
	if e != nil {
		cs = e.Table(rel).Col(col)
	}
	switch op {
	case value.OpEq:
		if cs != nil {
			if !e.uniform {
				if f, ok := cs.EqFraction(c); ok {
					return clampSel(f)
				}
			}
			if d := cs.DistinctCount(); d > 0 {
				return clampSel(1 / float64(d))
			}
		}
		return DefaultEqSel
	case value.OpNe:
		if cs != nil {
			if !e.uniform {
				if f, ok := cs.EqFraction(c); ok {
					return clampSel(1 - f)
				}
			}
			if d := cs.DistinctCount(); d > 0 {
				return clampSel(1 - 1/float64(d))
			}
		}
		return DefaultNeSel
	default:
		if cs != nil {
			if !e.uniform {
				if f, ok := cs.CmpFraction(op, c); ok {
					return clampSel(f)
				}
			}
			if f, ok := uniformRangeFraction(cs, op, c); ok {
				return clampSel(f)
			}
		}
		return DefaultRangeSel
	}
}

// uniformRangeFraction interpolates an ordered comparison over
// [Min, Max] assuming uniform spread — the System R model, used when no
// histogram backs the column (and by the Uniform view always).
func uniformRangeFraction(cs ColumnStats, op value.CmpOp, c value.Value) (float64, bool) {
	mn, mx, ok := cs.Bounds()
	if !ok {
		return 0, false
	}
	lo, ok1 := ordinal(mn)
	hi, ok2 := ordinal(mx)
	v, ok3 := ordinal(c)
	if !ok1 || !ok2 || !ok3 {
		return 0, false
	}
	if hi <= lo {
		// Single-point column: the comparison either always or never holds.
		if op.Holds(cmpFloat(lo, v)) {
			return 1, true
		}
		return 0, true
	}
	// Model c's own value as one "bucket" of 1/distinct probability and
	// interpolate the rest: below = frac·(1-bucket). This keeps the
	// boundaries honest — an inclusive comparison at a domain extremum
	// ("col <= Min", "col >= Max") estimates one bucket, not zero rows.
	frac := (v - lo) / (hi - lo)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	bucket := 1.0
	if d := cs.DistinctCount(); d > 0 {
		bucket = 1 / float64(d)
	}
	below := frac * (1 - bucket)
	switch op {
	case value.OpLt:
		return below, true
	case value.OpLe:
		return below + bucket, true
	case value.OpGt:
		return 1 - below - bucket, true
	case value.OpGe:
		return 1 - below, true
	}
	return 0, false
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// JoinSelectivity estimates the fraction of the cross product of two
// relations surviving "l.lcol op r.rcol". For equi-joins over columns
// with exact frequency tables the match probability is computed from
// the distributions directly (Σ f_l(v)·f_r(v)); columns with disjoint
// value ranges join to (almost) nothing; otherwise the System R
// 1/max(distinct) applies.
func (e *Estimator) JoinSelectivity(lrel, lcol string, op value.CmpOp, rrel, rcol string) float64 {
	switch op {
	case value.OpEq:
		if e != nil && !e.uniform {
			if f, ok := e.histEqJoin(lrel, lcol, rrel, rcol); ok {
				return clampSel(f)
			}
		}
		dl, dr := e.DistinctValues(lrel, lcol), e.DistinctValues(rrel, rcol)
		d := dl
		if dr > d {
			d = dr
		}
		if d > 0 {
			return clampSel(1 / d)
		}
		return DefaultEqSel
	case value.OpNe:
		return DefaultNeSel
	default:
		return DefaultRangeSel
	}
}

// histEqJoin computes the equi-join selectivity from the two columns'
// distributions. Exact mode on both sides gives the true match
// probability of the observed distributions; exact against equi-depth
// probes each frequency-table value into the other side's buckets; two
// equi-depth histograms convolve bucket against bucket; disjoint
// observed bounds short-circuit to near zero.
func (e *Estimator) histEqJoin(lrel, lcol, rrel, rcol string) (float64, bool) {
	lt, rt := e.Table(lrel), e.Table(rrel)
	lc, rc := lt.col(lcol), rt.col(rcol)
	if lc == nil || rc == nil {
		return 0, false
	}
	// Copy each side's distribution under its own lock, one at a time —
	// never holding both locks. Frequency tables are bounded by
	// MaxExactValues entries, histograms by their bucket budget.
	lPairs, lN, lok := snapshotExact(lt, lc)
	rPairs, rN, rok := snapshotExact(rt, rc)
	if lok && rok && lN > 0 && rN > 0 {
		small, big := lPairs, rPairs
		smallN, bigN := float64(lN), float64(rN)
		if len(rPairs) < len(lPairs) {
			small, big = rPairs, lPairs
			smallN, bigN = float64(rN), float64(lN)
		}
		bigByKey := make(map[value.Value]int, len(big))
		for _, p := range big {
			bigByKey[p.v] = p.n
		}
		sel := 0.0
		for _, p := range small {
			if bn, ok := bigByKey[p.v]; ok {
				sel += (float64(p.n) / smallN) * (float64(bn) / bigN)
			}
		}
		if sel <= 0 {
			sel = 1 / (smallN * bigN) // disjoint distributions: near zero, never zero
		}
		return sel, true
	}
	lB, lLo, lbN, lbok := snapshotBuckets(lt, lc)
	rB, rLo, rbN, rbok := snapshotBuckets(rt, rc)
	switch {
	case lok && rbok && lN > 0 && rbN > 0:
		// Exact against equi-depth: Σ f_l(v)·f̂_r(v), probing each known
		// value into the other side's covering bucket.
		return probeBuckets(lPairs, lN, rB, rLo, rbN), true
	case rok && lbok && rN > 0 && lbN > 0:
		return probeBuckets(rPairs, rN, lB, lLo, lbN), true
	case lbok && rbok && lbN > 0 && rbN > 0:
		return convolveBuckets(lB, lLo, lbN, rB, rLo, rbN), true
	}
	// Bounds disjointness: if the observed value ranges cannot overlap,
	// almost nothing joins.
	lmn, lmx, ok1 := e.Table(lrel).Col(lcol).Bounds()
	rmn, rmx, ok2 := e.Table(rrel).Col(rcol).Bounds()
	if ok1 && ok2 {
		lo1, a1 := ordinal(lmn)
		hi1, a2 := ordinal(lmx)
		lo2, a3 := ordinal(rmn)
		hi2, a4 := ordinal(rmx)
		if a1 && a2 && a3 && a4 && (hi1 < lo2 || hi2 < lo1) {
			return 1e-9, true
		}
	}
	return 0, false
}

// snapshotBuckets copies a column's equi-depth histogram under the
// table lock; ok is false when the column has no buckets (exact or
// bounds-only mode).
func snapshotBuckets(t *TableStats, c *colStats) ([]bucket, float64, int, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if c.counts != nil || len(c.buckets) == 0 {
		return nil, 0, 0, false
	}
	return append([]bucket(nil), c.buckets...), c.lo, c.n, true
}

// probeBuckets estimates Σ f_exact(v)·f̂_bucketed(v): each frequency-
// table value contributes its own fraction times the bucketed side's
// point estimate at that value (bucket count spread over the bucket's
// distinct values — the same model eqFraction uses).
func probeBuckets(pairs []valCount, pn int, bkts []bucket, blo float64, bn int) float64 {
	n := float64(bn)
	hi := bkts[len(bkts)-1].upper
	sel := 0.0
	for _, p := range pairs {
		ord, ok := ordinal(p.v)
		if !ok {
			continue // non-ordinal value cannot be in an ordinal histogram
		}
		fl := float64(p.n) / float64(pn)
		var fr float64
		if ord < blo || ord > hi {
			fr = 0.5 / n // outside the observed domain: near zero, never zero
		} else {
			b := bkts[bucketIndex(bkts, ord)]
			d := b.distinct
			if d < 1 {
				d = 1
			}
			fr = float64(b.count) / n / float64(d)
		}
		sel += fl * fr
	}
	if sel <= 0 {
		sel = 1 / (float64(pn) * n)
	}
	return sel
}

// histSeg is one equi-depth bucket prepared for convolution: either a
// point mass (all rows at one value) or an interval (lo, up] whose rows
// and distinct values smear uniformly.
type histSeg struct {
	lo, up   float64
	count    int
	distinct int
	point    bool
}

// histSegs expands buckets into segments, recovering each bucket's
// lower bound from its predecessor. Single-distinct buckets — the
// heavy hitters the equi-depth build isolates — become point masses, so
// partial overlaps cannot dilute them.
func histSegs(bkts []bucket, lo float64) []histSeg {
	segs := make([]histSeg, 0, len(bkts))
	prev := lo
	for _, b := range bkts {
		s := histSeg{lo: prev, up: b.upper, count: b.count, distinct: b.distinct}
		if b.distinct <= 1 || b.upper <= s.lo {
			s.point, s.lo = true, b.upper
		}
		segs = append(segs, s)
		prev = b.upper
	}
	return segs
}

// convolveBuckets estimates the equi-join selectivity of two equi-depth
// histograms: every bucket pair's ordinal overlap contributes the rows
// both sides place there, matched through the overlap's distinct-value
// count (containment assumption — each value on the sparser side finds
// a partner). Each join value lies in exactly one bucket per side, so
// summing over pairs counts nothing twice. O(HistBuckets²).
func convolveBuckets(lb []bucket, llo float64, ln int, rb []bucket, rlo float64, rn int) float64 {
	ls, rs := histSegs(lb, llo), histSegs(rb, rlo)
	nl, nr := float64(ln), float64(rn)
	sel := 0.0
	for _, a := range ls {
		for _, b := range rs {
			sel += segMatch(a, b, nl, nr)
		}
	}
	if sel <= 0 {
		sel = 1 / (nl * nr) // disjoint histograms: near zero, never zero
	}
	return sel
}

// segMatch is one bucket pair's contribution to the join selectivity.
func segMatch(a, b histSeg, nl, nr float64) float64 {
	switch {
	case a.point && b.point:
		if a.up == b.up {
			return (float64(a.count) / nl) * (float64(b.count) / nr)
		}
		return 0
	case a.point:
		return pointInSeg(a, b, nl, nr)
	case b.point:
		return pointInSeg(b, a, nr, nl)
	}
	lo := math.Max(a.lo, b.lo)
	up := math.Min(a.up, b.up)
	if up <= lo {
		return 0
	}
	fa := (up - lo) / (a.up - a.lo)
	fb := (up - lo) / (b.up - b.lo)
	rowsA := float64(a.count) * fa / nl
	rowsB := float64(b.count) * fb / nr
	d := math.Max(float64(a.distinct)*fa, float64(b.distinct)*fb)
	if d < 1 {
		d = 1
	}
	return rowsA * rowsB / d
}

// pointInSeg matches a point-mass bucket against an interval bucket.
func pointInSeg(p, s histSeg, np, ns float64) float64 {
	if p.up <= s.lo || p.up > s.up {
		return 0
	}
	d := s.distinct
	if d < 1 {
		d = 1
	}
	return (float64(p.count) / np) * (float64(s.count) / ns / float64(d))
}

// bucketIndex returns the index of the bucket covering ord (clamped to
// the last bucket), mirroring colStats.bucketFor for snapshot slices.
func bucketIndex(bkts []bucket, ord float64) int {
	lo, hi := 0, len(bkts)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if bkts[mid].upper < ord {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// snapshotExact copies a column's exact frequency table under the table
// lock; ok is false when the column is not in exact mode.
func snapshotExact(t *TableStats, c *colStats) ([]valCount, int, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if c.counts == nil {
		return nil, 0, false
	}
	out := make([]valCount, 0, len(c.counts))
	for _, vc := range c.counts {
		out = append(out, *vc)
	}
	return out, c.n, true
}

// clampSel keeps selectivities inside [0, 1].
func clampSel(s float64) float64 {
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// String renders the collected statistics for EXPLAIN-style output.
func (e *Estimator) String() string {
	if e == nil {
		return "estimator: none"
	}
	names := make([]string, 0, len(e.tables))
	for n := range e.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	if e.uniform {
		b.WriteString("(uniform view)\n")
	}
	for _, n := range names {
		fmt.Fprintf(&b, "%s\n", e.tables[n])
	}
	return b.String()
}
