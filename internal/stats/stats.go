// Package stats counts the quantities the paper's cost arguments are
// about: how many times each database relation is scanned, how many
// tuples those scans read, how many index probes and comparisons the
// collection phase performs, and how many intermediate reference tuples
// the combination phase materializes.
//
// The 1982 paper reports no absolute timings; its claims are about scan
// counts and intermediate cardinalities ("each range relation is read no
// more than once", "the size of indirect joins is reduced considerably").
// These counters reproduce exactly those measures, and the experiment
// harness prints them next to wall-clock time.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Counters accumulates cost measures for one query evaluation. The zero
// value is ready to use. A nil *Counters is accepted by every method and
// ignored, so hot paths can be instrumented unconditionally.
type Counters struct {
	BaseScans  map[string]int // relation name -> number of full scans started
	TuplesRead int64          // tuples delivered by base relation scans

	IndexProbes int64 // lookups into collection-phase indexes
	Comparisons int64 // join-term comparisons evaluated

	RefTuples     int64 // reference tuples materialized in the combination phase
	PeakRefTuples int64 // largest single reference relation built

	HashJoins      int64 // combination-phase joins resolved through a hash table
	CartesianJoins int64 // combination-phase joins with no shared variable (cross products)

	// PlanOrder is the scan order the planner chose for the most recent
	// evaluation, for plan-quality reporting.
	PlanOrder []string
	// CostBasedPlans counts physical plans built with the cost-based
	// ordering (vs the static tie-break); one evaluation may build
	// several when the Lemma 1 adaptation re-plans.
	CostBasedPlans int64

	Structures []StructStat // sizes of named intermediate structures
}

// StructStat records the final size of one intermediate structure
// (single list, index, indirect join, value list, or combination result).
type StructStat struct {
	Name string // e.g. "sl_csoph", "ij_c_t", "conj1", "union"
	Kind string // "single-list", "index", "indirect-join", "value-list", "refrel"
	Size int
}

// CountScan records the start of a full scan of the named base relation.
func (c *Counters) CountScan(rel string) {
	if c == nil {
		return
	}
	if c.BaseScans == nil {
		c.BaseScans = make(map[string]int)
	}
	c.BaseScans[rel]++
}

// CountTuples adds n to the number of tuples read from base relations.
func (c *Counters) CountTuples(n int) {
	if c == nil {
		return
	}
	c.TuplesRead += int64(n)
}

// CountProbes adds n index probes.
func (c *Counters) CountProbes(n int) {
	if c == nil {
		return
	}
	c.IndexProbes += int64(n)
}

// CountComparisons adds n join-term comparisons.
func (c *Counters) CountComparisons(n int) {
	if c == nil {
		return
	}
	c.Comparisons += int64(n)
}

// CountRefTuples adds n materialized reference tuples and updates the
// peak if sz (the size of the structure being built) exceeds it.
func (c *Counters) CountRefTuples(n, sz int) {
	if c == nil {
		return
	}
	c.RefTuples += int64(n)
	if int64(sz) > c.PeakRefTuples {
		c.PeakRefTuples = int64(sz)
	}
}

// CountHashJoin records one hash-resolved combination-phase join.
func (c *Counters) CountHashJoin() {
	if c == nil {
		return
	}
	c.HashJoins++
}

// CountCartesianJoin records one variable-disjoint (cross product) join.
func (c *Counters) CountCartesianJoin() {
	if c == nil {
		return
	}
	c.CartesianJoins++
}

// RecordPlanOrder notes the scan order the planner chose; costBased
// reports whether the cost-based ordering produced it.
func (c *Counters) RecordPlanOrder(order []string, costBased bool) {
	if c == nil {
		return
	}
	c.PlanOrder = append(c.PlanOrder[:0], order...)
	if costBased {
		c.CostBasedPlans++
	}
}

// RecordStructure notes the final size of a named intermediate structure.
func (c *Counters) RecordStructure(name, kind string, size int) {
	if c == nil {
		return
	}
	c.Structures = append(c.Structures, StructStat{Name: name, Kind: kind, Size: size})
}

// TotalScans returns the number of base-relation scans across all
// relations.
func (c *Counters) TotalScans() int {
	if c == nil {
		return 0
	}
	n := 0
	for _, v := range c.BaseScans {
		n += v
	}
	return n
}

// Merge adds other's counts into c.
func (c *Counters) Merge(other *Counters) {
	if c == nil || other == nil {
		return
	}
	for rel, n := range other.BaseScans {
		if c.BaseScans == nil {
			c.BaseScans = make(map[string]int)
		}
		c.BaseScans[rel] += n
	}
	c.TuplesRead += other.TuplesRead
	c.IndexProbes += other.IndexProbes
	c.Comparisons += other.Comparisons
	c.RefTuples += other.RefTuples
	if other.PeakRefTuples > c.PeakRefTuples {
		c.PeakRefTuples = other.PeakRefTuples
	}
	c.HashJoins += other.HashJoins
	c.CartesianJoins += other.CartesianJoins
	c.CostBasedPlans += other.CostBasedPlans
	if len(other.PlanOrder) > 0 {
		c.PlanOrder = append(c.PlanOrder[:0], other.PlanOrder...)
	}
	c.Structures = append(c.Structures, other.Structures...)
}

// Fingerprint renders the counters as a deterministic string: map keys
// sorted, structure records sorted (their natural order follows map
// iteration in parts of the engine, so only the multiset is
// meaningful). Two runs of the same work must produce equal
// fingerprints; the differential harness compares them.
func (c *Counters) Fingerprint() string {
	if c == nil {
		return ""
	}
	var b strings.Builder
	rels := make([]string, 0, len(c.BaseScans))
	for rel := range c.BaseScans {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	for _, rel := range rels {
		fmt.Fprintf(&b, "scan %s=%d;", rel, c.BaseScans[rel])
	}
	fmt.Fprintf(&b, "tuples=%d;probes=%d;cmps=%d;ref=%d;peak=%d;hash=%d;cart=%d;costplans=%d;",
		c.TuplesRead, c.IndexProbes, c.Comparisons, c.RefTuples, c.PeakRefTuples,
		c.HashJoins, c.CartesianJoins, c.CostBasedPlans)
	fmt.Fprintf(&b, "order=%s;", strings.Join(c.PlanOrder, ","))
	structs := make([]string, 0, len(c.Structures))
	for _, s := range c.Structures {
		structs = append(structs, fmt.Sprintf("%s|%s|%d", s.Name, s.Kind, s.Size))
	}
	sort.Strings(structs)
	b.WriteString(strings.Join(structs, ";"))
	return b.String()
}

// Scale multiplies every additive counter by n (peaks stay, the plan
// order stays, structure records replicate) — the expected merged sink
// after n identical executions.
func (c *Counters) Scale(n int) *Counters {
	if c == nil {
		return nil
	}
	out := &Counters{}
	for i := 0; i < n; i++ {
		out.Merge(c)
	}
	return out
}

// Reset clears all counters for reuse.
func (c *Counters) Reset() {
	if c == nil {
		return
	}
	*c = Counters{}
}

// String renders a compact multi-line report.
func (c *Counters) String() string {
	if c == nil {
		return "stats: disabled"
	}
	var b strings.Builder
	rels := make([]string, 0, len(c.BaseScans))
	for rel := range c.BaseScans {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	fmt.Fprintf(&b, "scans: total=%d", c.TotalScans())
	for _, rel := range rels {
		fmt.Fprintf(&b, " %s=%d", rel, c.BaseScans[rel])
	}
	fmt.Fprintf(&b, "\ntuples read: %d, index probes: %d, comparisons: %d\n",
		c.TuplesRead, c.IndexProbes, c.Comparisons)
	fmt.Fprintf(&b, "ref tuples built: %d (peak structure %d)\n", c.RefTuples, c.PeakRefTuples)
	fmt.Fprintf(&b, "combination joins: hash=%d cartesian=%d\n", c.HashJoins, c.CartesianJoins)
	if len(c.PlanOrder) > 0 {
		fmt.Fprintf(&b, "scan order: %s\n", strings.Join(c.PlanOrder, " -> "))
	}
	for _, s := range c.Structures {
		fmt.Fprintf(&b, "  %-16s %-13s size=%d\n", s.Name, s.Kind, s.Size)
	}
	return b.String()
}
