// Incremental per-column histograms. The estimator's original
// statistics (distinct count, min/max) assume values spread uniformly
// between the extrema — the System R model, and the known weak point on
// skewed data: a heavy-hitter value takes 1/distinct of the rows in the
// model and 90% of them in reality, and every plan decision downstream
// of that estimate inherits the error.
//
// A column's statistics live in one of three modes, degrading as the
// column grows:
//
//   - exact: a per-value frequency table (at most MaxExactValues
//     entries). Equivalent to a width-one equi-width histogram; =, <>,
//     and range fractions are computed exactly, and the table is
//     maintained exactly under inserts AND deletes, so low-distinct
//     columns (enums, flags, small domains — where skew hurts most)
//     never need a rebuild.
//   - equi-depth: when the distinct count outgrows the frequency
//     table, the tracked values fold into HistBuckets equi-depth
//     buckets (each holding ~n/HistBuckets rows, so heavy hitters get
//     narrow buckets of their own). Buckets absorb inserts and deletes
//     by count deltas; boundary quality decays with churn, which the
//     drift threshold repairs by re-bucketing from a fresh scan.
//     Distinct counts in this mode come from a linear-counting sketch.
//   - bounds-only: columns whose values have no numeric ordinal
//     (strings) keep distinct and min/max only — the pre-histogram
//     behavior.
//
// All mutation and query entry points are on TableStats, which holds
// the lock; colStats itself is unsynchronized.
package stats

import (
	"hash/fnv"
	"math"
	"math/bits"
	"sort"

	"pascalr/internal/value"
)

const (
	// MaxExactValues bounds the per-value frequency table of one column;
	// columns with more distinct values degrade to equi-depth buckets.
	MaxExactValues = 256
	// HistBuckets is the equi-depth bucket budget per column.
	HistBuckets = 32
)

// Column statistic modes, reported by ColumnStats.Mode.
const (
	ModeExact     = "exact"      // per-value frequency table
	ModeEquiDepth = "equi-depth" // bucketed histogram
	ModeBounds    = "bounds"     // distinct + min/max only
)

// ColumnStats is the read interface to one column's statistics — what
// the estimator (and through it every cost-based planning decision)
// consults. It replaces direct access to the old min/max/distinct
// struct so call sites cannot tell a frequency table from an equi-depth
// histogram from a bounds-only summary.
type ColumnStats interface {
	// DistinctCount returns the (possibly estimated) number of distinct
	// live values; 0 when nothing was observed.
	DistinctCount() int
	// Bounds returns the observed extrema. ok is false when the column
	// is empty or holds values of mixed kinds.
	Bounds() (min, max value.Value, ok bool)
	// EqFraction estimates the fraction of rows whose value equals v.
	// ok is false when no histogram backs the answer (bounds-only mode).
	EqFraction(v value.Value) (float64, bool)
	// CmpFraction estimates the fraction of rows satisfying "col op v"
	// for the ordered operators (<, <=, >, >=).
	CmpFraction(op value.CmpOp, v value.Value) (float64, bool)
	// Mode reports which representation backs the estimates: ModeExact,
	// ModeEquiDepth, or ModeBounds.
	Mode() string
}

// valCount is one entry of the exact-mode frequency table.
type valCount struct {
	v value.Value
	n int
}

// bucket is one equi-depth bucket: rows whose ordinal falls in
// (lower, upper] where lower is the previous bucket's upper (or the
// histogram's lo for the first bucket, inclusive).
type bucket struct {
	upper    float64
	count    int
	distinct int
}

// colStats is the mutable statistics of one column. Callers synchronize
// through the owning TableStats.
type colStats struct {
	n        int // live values observed
	min, max value.Value
	ordered  bool // min/max comparable (no mixed kinds seen)

	distinct int                       // exact in exact mode; floor estimate otherwise
	counts   map[value.Value]*valCount // exact mode, keyed by the value itself; nil once degraded
	buckets  []bucket                  // equi-depth mode; nil in bounds-only mode
	lo       float64                   // ordinal lower bound of buckets[0]
	sketch   *linearSketch             // distinct estimator once counts is gone
}

func newColStats() *colStats {
	return &colStats{counts: make(map[value.Value]*valCount)}
}

// encVal encodes a value for the distinct sketch and for the sorted
// order of the serialized frequency table.
func encVal(v value.Value) string { return value.EncodeKey([]value.Value{v}) }

// observeInsert folds one value in; it reports whether the column just
// degraded out of exact mode (the owning table counts degraded columns
// so the drift check stays O(1) on the mutation path).
func (c *colStats) observeInsert(v value.Value) (degraded bool) {
	c.n++
	c.updateBounds(v)
	if c.counts != nil {
		if vc := c.counts[v]; vc != nil {
			vc.n++
			return false
		}
		if len(c.counts) < MaxExactValues {
			c.counts[v] = &valCount{v: v, n: 1}
			c.distinct++
			return false
		}
		c.degrade()
		// Every degraded column arms the drift rebuild — including a
		// bounds-only one (non-ordinal values, no buckets): its
		// insert-only sketch overcounts under deletes and its extrema go
		// stale-wide, both of which only a rescan repairs.
		degraded = true
		// fall through: the new value lands in a bucket
	}
	c.sketch.add(encVal(v))
	c.bucketAdd(v)
	return degraded
}

func (c *colStats) observeDelete(v value.Value) {
	if c.n > 0 {
		c.n--
	}
	if c.counts != nil {
		if vc := c.counts[v]; vc != nil {
			vc.n--
			if vc.n <= 0 {
				delete(c.counts, v)
				c.distinct--
				// The frequency table holds every live value, so when an
				// extremum vanishes the bounds can be recomputed exactly —
				// exact mode stays exact under deletes, bounds included.
				if c.ordered && c.min.IsValid() && (value.Equal(v, c.min) || value.Equal(v, c.max)) {
					c.recomputeBounds()
				}
			}
		}
		return
	}
	// Bucketed: decrement the covering bucket; extrema and the sketch go
	// stale-wide, which the drift rebuild repairs.
	if ord, ok := ordinal(v); ok && len(c.buckets) > 0 {
		bi := c.bucketFor(ord)
		if c.buckets[bi].count > 0 {
			c.buckets[bi].count--
		}
	}
}

// recomputeBounds rebuilds min/max from the frequency table (exact
// mode only — it is the complete live-value set).
func (c *colStats) recomputeBounds() {
	c.min, c.max = value.Value{}, value.Value{}
	c.ordered = false
	for _, vc := range c.counts {
		c.updateBounds(vc.v)
	}
}

func (c *colStats) updateBounds(v value.Value) {
	if !c.min.IsValid() {
		c.min, c.max, c.ordered = v, v, true
		return
	}
	if !c.ordered {
		return
	}
	cmpMin, err1 := value.Compare(v, c.min)
	cmpMax, err2 := value.Compare(v, c.max)
	if err1 != nil || err2 != nil {
		c.ordered = false // mixed kinds: extrema unusable
		return
	}
	if cmpMin < 0 {
		c.min = v
	}
	if cmpMax > 0 {
		c.max = v
	}
}

// degrade folds the exact frequency table into equi-depth buckets (for
// ordinal-able values) and a distinct sketch, then drops the table.
func (c *colStats) degrade() {
	c.sketch = newLinearSketch()
	pairs := make([]valCount, 0, len(c.counts))
	for _, vc := range c.counts {
		c.sketch.add(encVal(vc.v))
		pairs = append(pairs, *vc)
	}
	c.buckets, c.lo = buildBuckets(pairs, c.n)
	c.counts = nil
}

// buildBuckets builds equi-depth buckets from (value, count) pairs.
// Returns nil when the values have no ordinal (bounds-only mode).
func buildBuckets(pairs []valCount, total int) ([]bucket, float64) {
	type op struct {
		ord float64
		n   int
	}
	ords := make([]op, 0, len(pairs))
	for _, p := range pairs {
		o, ok := ordinal(p.v)
		if !ok {
			return nil, 0
		}
		ords = append(ords, op{o, p.n})
	}
	if len(ords) == 0 {
		return nil, 0
	}
	sort.Slice(ords, func(i, j int) bool { return ords[i].ord < ords[j].ord })
	depth := (total + HistBuckets - 1) / HistBuckets
	if depth < 1 {
		depth = 1
	}
	var out []bucket
	cur := bucket{}
	for i, o := range ords {
		// A value carrying a full bucket's worth of rows gets a bucket
		// of its own (compressed-histogram rule): heavy hitters must not
		// share their mass with neighbors, or point estimates divide it
		// across the bucket's distinct values.
		if o.n >= depth && cur.distinct > 0 {
			out = append(out, cur)
			cur = bucket{}
		}
		cur.count += o.n
		cur.distinct++
		cur.upper = o.ord
		if cur.count >= depth && i < len(ords)-1 {
			out = append(out, cur)
			cur = bucket{}
		}
	}
	if cur.distinct > 0 {
		out = append(out, cur)
	}
	return out, ords[0].ord
}

// bucketFor returns the index of the bucket covering ord (clamped to
// the first/last bucket for out-of-range ordinals).
func (c *colStats) bucketFor(ord float64) int {
	lo, hi := 0, len(c.buckets)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if c.buckets[mid].upper < ord {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (c *colStats) bucketAdd(v value.Value) {
	if len(c.buckets) == 0 {
		return
	}
	ord, ok := ordinal(v)
	if !ok {
		return
	}
	bi := c.bucketFor(ord)
	if bi == len(c.buckets)-1 && ord > c.buckets[bi].upper {
		c.buckets[bi].upper = ord // domain grew upward: stretch the last bucket
	}
	if bi == 0 && ord < c.lo {
		c.lo = ord
	}
	c.buckets[bi].count++
}

func (c *colStats) distinctCount() int {
	if c.counts != nil {
		return c.distinct
	}
	d := c.distinct
	if c.sketch != nil {
		if s := c.sketch.estimate(); s > d {
			d = s
		}
	}
	if d > c.n {
		d = c.n
	}
	if d < 1 && c.n > 0 {
		d = 1
	}
	return d
}

func (c *colStats) bounds() (value.Value, value.Value, bool) {
	if !c.ordered || !c.min.IsValid() {
		return value.Value{}, value.Value{}, false
	}
	return c.min, c.max, true
}

func (c *colStats) eqFraction(v value.Value) (float64, bool) {
	if c.n == 0 {
		return 0, false
	}
	n := float64(c.n)
	if c.counts != nil {
		if vc := c.counts[v]; vc != nil {
			return float64(vc.n) / n, true
		}
		// Unseen value: near zero, but never exactly zero — cost products
		// must stay comparable.
		return 0.5 / n, true
	}
	if len(c.buckets) == 0 {
		return 0, false
	}
	ord, ok := ordinal(v)
	if !ok {
		return 0, false
	}
	if ord < c.lo || ord > c.buckets[len(c.buckets)-1].upper {
		return 0.5 / n, true
	}
	b := c.buckets[c.bucketFor(ord)]
	d := b.distinct
	if d < 1 {
		d = 1
	}
	return float64(b.count) / n / float64(d), true
}

func (c *colStats) cmpFraction(op value.CmpOp, v value.Value) (float64, bool) {
	if c.n == 0 {
		return 0, false
	}
	if c.counts != nil {
		below, at := 0, 0
		for _, vc := range c.counts {
			cmp, err := value.Compare(vc.v, v)
			if err != nil {
				return 0, false // mixed kinds: no usable order
			}
			switch {
			case cmp < 0:
				below += vc.n
			case cmp == 0:
				at += vc.n
			}
		}
		return fractionFromBelowAt(op, float64(below), float64(at), float64(c.n))
	}
	if len(c.buckets) == 0 {
		return 0, false
	}
	ord, ok := ordinal(v)
	if !ok {
		return 0, false
	}
	n := float64(c.n)
	hi := c.buckets[len(c.buckets)-1].upper
	switch {
	case ord < c.lo:
		return fractionFromBelowAt(op, 0, 0, n)
	case ord > hi:
		return fractionFromBelowAt(op, n, 0, n)
	}
	bi := c.bucketFor(ord)
	below := 0.0
	for i := 0; i < bi; i++ {
		below += float64(c.buckets[i].count)
	}
	b := c.buckets[bi]
	bLo := c.lo
	if bi > 0 {
		bLo = c.buckets[bi-1].upper
	}
	frac := 1.0
	if b.upper > bLo {
		frac = (ord - bLo) / (b.upper - bLo)
	}
	d := b.distinct
	if d < 1 {
		d = 1
	}
	at := float64(b.count) / float64(d) // point mass of v's own value
	inBelow := frac * (float64(b.count) - at)
	return fractionFromBelowAt(op, below+inBelow, at, n)
}

// fractionFromBelowAt turns "rows strictly below v" and "rows equal to
// v" into the fraction satisfying an ordered comparison.
func fractionFromBelowAt(op value.CmpOp, below, at, n float64) (float64, bool) {
	if n <= 0 {
		return 0, false
	}
	switch op {
	case value.OpLt:
		return below / n, true
	case value.OpLe:
		return (below + at) / n, true
	case value.OpGt:
		return (n - below - at) / n, true
	case value.OpGe:
		return (n - below) / n, true
	}
	return 0, false
}

func (c *colStats) mode() string {
	switch {
	case c.counts != nil:
		return ModeExact
	case len(c.buckets) > 0:
		return ModeEquiDepth
	default:
		return ModeBounds
	}
}

func (c *colStats) clone() *colStats {
	cp := *c
	if c.counts != nil {
		cp.counts = make(map[value.Value]*valCount, len(c.counts))
		for k, vc := range c.counts {
			v := *vc
			cp.counts[k] = &v
		}
	}
	cp.buckets = append([]bucket(nil), c.buckets...)
	if c.sketch != nil {
		cp.sketch = c.sketch.clone()
	}
	return &cp
}

// linearSketch is a linear-counting distinct estimator: a fixed bitmap
// indexed by a hash of the value. Insert-only; deletions make it
// overcount, which the drift rebuild repairs.
type linearSketch struct {
	bits []uint64
}

const sketchBits = 1 << 14 // 16384 bits = 2 KiB per high-distinct column

func newLinearSketch() *linearSketch {
	return &linearSketch{bits: make([]uint64, sketchBits/64)}
}

func (s *linearSketch) add(key string) {
	h := fnv.New64a()
	h.Write([]byte(key))
	bit := h.Sum64() % sketchBits
	s.bits[bit/64] |= 1 << (bit % 64)
}

func (s *linearSketch) estimate() int {
	ones := 0
	for _, w := range s.bits {
		ones += bits.OnesCount64(w)
	}
	zeros := sketchBits - ones
	if zeros == 0 {
		return sketchBits
	}
	return int(sketchBits * math.Log(float64(sketchBits)/float64(zeros)))
}

func (s *linearSketch) clone() *linearSketch {
	return &linearSketch{bits: append([]uint64(nil), s.bits...)}
}

// ordinal maps a value onto the number line for interpolation.
func ordinal(v value.Value) (float64, bool) {
	switch v.Kind() {
	case value.KindInt:
		return float64(v.AsInt()), true
	case value.KindEnum:
		return float64(v.EnumOrd()), true
	case value.KindBool:
		if v.AsBool() {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}
