// TableStats: live, incrementally maintained relation statistics.
// Formerly a write-once summary produced by DB.Analyze rescans; now the
// storage layer's mutators feed it on every insert, delete, and
// assignment, so cost-based planning never needs an analyze pass —
// Analyze survives only as a forced rebuild.
package stats

import (
	"fmt"
	"strings"
	"sync"

	"pascalr/internal/value"
)

const (
	// minDriftMutations and driftFraction set the re-bucketing trigger:
	// a table in histogram mode re-buckets after
	// max(minDriftMutations, driftFraction·rows) mutations.
	minDriftMutations = 256
	driftFraction     = 0.2
)

// TableStats is one relation's live statistics: cardinality and
// per-column histograms. All methods are safe for concurrent
// use; mutators are expected to be serialized by the storage layer's
// content write lock, readers may run anywhere (including with no
// database lock held — compile-time planning reads snapshots).
type TableStats struct {
	Name string

	mu      sync.RWMutex
	rows    int
	cols    map[string]*colStats
	colList []string

	drift    int // mutations since the last (re)build
	baseRows int // rows at the last (re)build
	// degradedCols counts columns that degraded out of exact mode, so
	// the per-mutation drift check needs no column iteration.
	degradedCols int
}

// NewTableStats creates empty statistics for a relation with the given
// columns, ready to observe mutations.
func NewTableStats(name string, cols []string) *TableStats {
	t := &TableStats{Name: name, cols: make(map[string]*colStats, len(cols)), colList: append([]string(nil), cols...)}
	for _, c := range cols {
		t.cols[c] = newColStats()
	}
	return t
}

// Rows returns the live cardinality.
func (t *TableStats) Rows() int {
	if t == nil {
		return 0
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows
}

// Columns returns the column names in schema order.
func (t *TableStats) Columns() []string {
	if t == nil {
		return nil
	}
	return append([]string(nil), t.colList...)
}

// Col returns the statistics of a column, or nil when unknown.
func (t *TableStats) Col(name string) ColumnStats {
	if t == nil {
		return nil
	}
	t.mu.RLock()
	cs := t.cols[name]
	t.mu.RUnlock()
	if cs == nil {
		return nil
	}
	return colView{t: t, cs: cs}
}

// col returns the concrete column statistics for package-internal use
// (join selectivity needs the frequency tables).
func (t *TableStats) col(name string) *colStats {
	if t == nil {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.cols[name]
}

// ObserveInsert folds one inserted tuple (in column order) into the
// statistics. It reports whether the table has drifted past its
// rebuild threshold — computed under the lock already held, so the
// mutation path needs no second acquisition.
func (t *TableStats) ObserveInsert(tuple []value.Value) bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows++
	t.drift++
	wasExact := t.degradedCols == 0
	for i, c := range t.colList {
		if i >= len(tuple) {
			break
		}
		if t.cols[c].observeInsert(tuple[i]) {
			t.degradedCols++
		}
	}
	if wasExact && t.degradedCols > 0 {
		// The first column just degraded out of exact mode. degrade()
		// builds its buckets (or, for non-ordinal values, its distinct
		// sketch) from the complete frequency table — exactly what a
		// rebuild would produce — so drift restarts here. Counting from relation
		// creation instead would trip the threshold on this very
		// mutation and schedule a full rescan that reproduces what
		// degrade() just computed.
		t.drift, t.baseRows = 0, t.rows
	}
	return t.drifted()
}

// ObserveDelete removes one tuple's contribution; like ObserveInsert
// it reports the drift state.
func (t *TableStats) ObserveDelete(tuple []value.Value) bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rows > 0 {
		t.rows--
	}
	t.drift++
	for i, c := range t.colList {
		if i >= len(tuple) {
			break
		}
		t.cols[c].observeDelete(tuple[i])
	}
	return t.drifted()
}

// Reset clears the statistics (an assignment replaced the contents).
func (t *TableStats) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows, t.drift, t.baseRows, t.degradedCols = 0, 0, 0, 0
	for _, c := range t.colList {
		t.cols[c] = newColStats()
	}
}

// Drifted reports whether enough mutations accumulated since the last
// rebuild that the degraded statistics should be rebuilt. Exact-mode
// statistics maintain themselves (a rescan would reproduce them) and
// never drift; degraded columns — bucketed histograms whose boundary
// quality decays with churn, and bounds-only sketches that overcount
// deletes — need the rescan.
func (t *TableStats) Drifted() bool {
	if t == nil {
		return false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.drifted()
}

// drifted is Drifted for callers already holding the lock.
func (t *TableStats) drifted() bool {
	if t.degradedCols == 0 {
		return false
	}
	thr := int(driftFraction * float64(t.baseRows))
	if thr < minDriftMutations {
		thr = minDriftMutations
	}
	return t.drift >= thr
}

// Snapshot returns an immutable deep copy for planning: compile-time
// consumers read it without holding any database lock.
func (t *TableStats) Snapshot() *TableStats {
	if t == nil {
		return nil
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	cp := &TableStats{
		Name:         t.Name,
		rows:         t.rows,
		cols:         make(map[string]*colStats, len(t.cols)),
		colList:      append([]string(nil), t.colList...),
		drift:        t.drift,
		baseRows:     t.baseRows,
		degradedCols: t.degradedCols,
	}
	for name, cs := range t.cols {
		cp.cols[name] = cs.clone()
	}
	return cp
}

// colView adapts one column's statistics to the ColumnStats interface,
// taking the table lock around every read so views handed to planners
// stay safe while mutators run.
type colView struct {
	t  *TableStats
	cs *colStats
}

func (v colView) DistinctCount() int {
	v.t.mu.RLock()
	defer v.t.mu.RUnlock()
	return v.cs.distinctCount()
}

func (v colView) Bounds() (value.Value, value.Value, bool) {
	v.t.mu.RLock()
	defer v.t.mu.RUnlock()
	return v.cs.bounds()
}

func (v colView) EqFraction(val value.Value) (float64, bool) {
	v.t.mu.RLock()
	defer v.t.mu.RUnlock()
	return v.cs.eqFraction(val)
}

func (v colView) CmpFraction(op value.CmpOp, val value.Value) (float64, bool) {
	v.t.mu.RLock()
	defer v.t.mu.RUnlock()
	return v.cs.cmpFraction(op, val)
}

func (v colView) Mode() string {
	v.t.mu.RLock()
	defer v.t.mu.RUnlock()
	return v.cs.mode()
}

// Rebuild accumulates one full pass over a relation's live tuples and
// swaps fresh statistics into the target table: exact frequency tables
// where the distinct count permits, equi-depth buckets built from the
// complete value distribution otherwise. The storage layer runs it
// under its content read lock (writers blocked), so the scan and the
// swap see one consistent state.
type Rebuild struct {
	t    *TableStats
	rows int
	vals []map[value.Value]*valCount
}

// NewRebuild returns an empty rebuild accumulator for t.
func (t *TableStats) NewRebuild() *Rebuild {
	rb := &Rebuild{t: t, vals: make([]map[value.Value]*valCount, len(t.colList))}
	for i := range rb.vals {
		rb.vals[i] = make(map[value.Value]*valCount)
	}
	return rb
}

// Add folds one live tuple into the accumulator.
func (rb *Rebuild) Add(tuple []value.Value) {
	rb.rows++
	for i := range rb.vals {
		if i >= len(tuple) {
			break
		}
		k := tuple[i]
		if vc := rb.vals[i][k]; vc != nil {
			vc.n++
		} else {
			rb.vals[i][k] = &valCount{v: k, n: 1}
		}
	}
}

// Commit builds the per-column statistics and swaps them into the
// target table, resetting its drift.
func (rb *Rebuild) Commit() {
	cols := make(map[string]*colStats, len(rb.t.colList))
	for i, name := range rb.t.colList {
		cols[name] = buildColStats(rb.vals[i])
	}
	t := rb.t
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows = rb.rows
	t.cols = cols
	t.drift = 0
	t.baseRows = rb.rows
	t.degradedCols = 0
	for _, cs := range cols {
		if cs.counts == nil {
			t.degradedCols++
		}
	}
}

// buildColStats turns one column's aggregated (value, count) table into
// fresh statistics: exact mode when small enough, equi-depth buckets
// (built from the full distribution, so boundaries are true quantiles)
// otherwise.
func buildColStats(agg map[value.Value]*valCount) *colStats {
	c := &colStats{}
	pairs := make([]valCount, 0, len(agg))
	for _, vc := range agg {
		pairs = append(pairs, *vc)
		c.n += vc.n
		c.updateBounds(vc.v)
	}
	c.distinct = len(pairs)
	if len(pairs) <= MaxExactValues {
		c.counts = make(map[value.Value]*valCount, len(pairs))
		for _, p := range pairs {
			p := p
			c.counts[p.v] = &p
		}
		return c
	}
	c.buckets, c.lo = buildBuckets(pairs, c.n)
	c.sketch = newLinearSketch()
	for _, p := range pairs {
		c.sketch.add(encVal(p.v))
	}
	return c
}

// String renders a compact per-column summary.
func (t *TableStats) String() string {
	if t == nil {
		return "<nil>"
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	var b strings.Builder
	fmt.Fprintf(&b, "%s: rows=%d", t.Name, t.rows)
	for _, name := range t.colList {
		cs := t.cols[name]
		fmt.Fprintf(&b, " %s(d=%d,%s)", name, cs.distinctCount(), cs.mode())
	}
	return b.String()
}
