package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"pascalr/internal/calculus"
	"pascalr/internal/collection"
	"pascalr/internal/obs"
	"pascalr/internal/optimizer"
	"pascalr/internal/relation"
	"pascalr/internal/schema"
	"pascalr/internal/stats"
	"pascalr/internal/value"
)

// varNode is one scan unit: a free variable, a surviving prefix
// variable, or an eliminated strategy-4 variable whose scan only feeds a
// value list.
type varNode struct {
	v    string
	rng  *calculus.RangeExpr
	rel  *relation.Relation
	sch  *schema.RelSchema
	free bool
	live bool // free or still in the prefix (needs a range list)
	rt   *specRuntime
	deps map[string]struct{} // variables whose scans must precede this one
}

// slSpec describes one single list to build: references of v's range
// satisfying preds.
type slSpec struct {
	key   string
	v     string
	label string
	preds []batchPred
	out   *collection.SingleList
}

// ixSpec describes one index over v's range: either built during v's
// scan, or a permanent access path maintained by the relation (in which
// case no build task is emitted and, when v's range is extended, probe
// hits are filtered against v's range list).
type ixSpec struct {
	key    string
	v      string
	colIdx int
	out    *collection.Index  // built during the scan; nil when permanent
	perm   *relation.ColIndex // permanent access path; nil when built
	// filtered reports that v's range is extended, so permanent-index
	// hits must be checked against the range list.
	filtered bool
}

func (ix *ixSpec) length() int {
	if ix.perm != nil {
		return ix.perm.Len()
	}
	return ix.out.Len()
}

// probe enumerates references whose indexed value iv satisfies
// "pv op iv", applying the range filter for permanent indexes. Probes
// count into st, the probing worker's sink.
func (ix *ixSpec) probe(p *plan, st *stats.Counters, op value.CmpOp, pv value.Value, fn func(value.Value)) {
	if ix.perm == nil {
		ix.out.Probe(st, op, pv, fn)
		return
	}
	if !ix.filtered {
		ix.perm.ProbeStats(st, op, pv, fn)
		return
	}
	in := p.rangeSet(ix.v)
	ix.perm.ProbeStats(st, op, pv, func(ref value.Value) {
		if _, ok := in[value.EncodeKey([]value.Value{ref})]; ok {
			fn(ref)
		}
	})
}

// entriesDo enumerates (value, ref) pairs, applying the range filter for
// permanent indexes.
func (ix *ixSpec) entriesDo(p *plan, fn func(v, ref value.Value)) {
	if ix.perm == nil {
		for _, e := range ix.out.Entries() {
			fn(e.Val, e.Ref)
		}
		return
	}
	if !ix.filtered {
		ix.perm.Entries(fn)
		return
	}
	in := p.rangeSet(ix.v)
	ix.perm.Entries(func(v, ref value.Value) {
		if _, ok := in[value.EncodeKey([]value.Value{ref})]; ok {
			fn(v, ref)
		}
	})
}

// probeRef is one indirect-join probe within a group.
type probeRef struct {
	op       value.CmpOp // oriented: probeValue op indexedValue
	probeCol int
	index    *ixSpec
	out      *collection.IndirectJoin
}

// probeGroup builds one or more indirect joins while scanning v's range.
// Under strategy 2 the group carries the conjunction's monadic
// predicates on v and the probes restrict each other: an element
// produces pairs only if every probe in the group has at least one
// match.
type probeGroup struct {
	key    string
	v      string
	preds  []batchPred
	probes []probeRef
	mutual bool
}

// dyAssign is a dyadic term with its probe/index side assignment.
type dyAssign struct {
	c           *calculus.Cmp
	probeV, ixV string
	probeF, ixF calculus.Field
	op          value.CmpOp // probeValue op indexedValue
	deferToComb bool
}

// deferredIJ is a dyadic term evaluated before the combination phase by
// joining two indexes (used when both sides live in the same scan, so
// probing during the scan would require reading the relation twice).
type deferredIJ struct {
	key    string
	lv, rv string
	op     value.CmpOp // leftValue op rightValue
	lIx    *ixSpec
	rIx    *ixSpec
	out    *collection.IndirectJoin
}

// conjPlan lists the pieces that combine into one conjunction's
// n-tuples.
type conjPlan struct {
	ijs      []*collection.IndirectJoin
	ijNames  [][2]string // LVar, RVar per ij
	sls      []*slSpec
	consts   []*specRuntime  // constant derived atoms gating the conjunction
	consumed map[string]bool // variables constrained by ijs/sls
}

// scanJob is one pass over a relation executing a set of tasks.
type scanJob struct {
	rel   *relation.Relation
	vars  []string
	tasks []scanTask
	// batchCols is the job's column mask — the sorted union of its
	// tasks' footprints, nil when some task reads whole rows
	// (planColumnMasks). batches and liftedRows count, across all
	// shards, the columnar batches produced and the rows evaluated
	// row-at-a-time through liftRowPred, for EXPLAIN and span
	// attributes.
	batchCols  []int
	batches    atomic.Int64
	liftedRows atomic.Int64
}

// plan is the compiled physical plan for one evaluation.
type plan struct {
	x     *optimizer.XForm
	db    *relation.DB
	st    *stats.Counters
	strat Strategy
	// par is the collection-phase worker budget; 1 runs the paper's
	// serial schedule on the calling goroutine.
	par int
	// mu guards the structures that scan workers touch across job
	// boundaries: the range-list map (published by range tasks, read by
	// filtered permanent-index probes of concurrent scans) and the
	// lazily built range sets.
	mu sync.Mutex
	// est drives cost-based scan ordering and combination-phase join
	// ordering; nil keeps the paper's static priorities.
	est       *stats.Estimator
	costCards map[string]float64 // memoized effective cardinalities

	// refBase snapshots the sink's cumulative RefTuples counter at plan
	// creation: the MaxRefTuples budget bounds this execution's delta,
	// not the sink's lifetime total, so re-executing a prepared or
	// cached plan against a shared sink never trips the budget
	// spuriously.
	refBase int64

	vars      map[string]*varNode
	order     []string
	jobs      []*scanJob
	rangeLst  map[string][]value.Value
	needRange map[string]bool
	rangeSets map[string]map[string]struct{}
	sls       map[string]*slSpec
	ixs       map[string]*ixSpec
	groups    map[string]*probeGroup
	deferred  []*deferredIJ
	specRTs   map[*optimizer.SemiSpec]*specRuntime
	conjs     []*conjPlan

	// joinLog records each combination-phase join's estimated and
	// actual output for EXPLAIN reporting. Parallel conjunction jobs
	// append to private logs merged in conjunction order, so no lock
	// guards it.
	joinLog []joinStep

	// collSp/combSp/jobSpans hang this execution's trace spans off the
	// caller's span tree (internal/obs); all nil/empty when tracing is
	// off. jobSpans parallels jobs; each entry is written once by the
	// goroutine that opens the job's span (serially, or at emission time
	// in the parallel path) and read only after the scans complete.
	collSp   *obs.Span
	combSp   *obs.Span
	jobSpans []*obs.Span
}

// joinStep is one greedy-join decision: the variables of the joined
// piece, the estimated output the planner chose it by (-1 under static
// planning), and the actual output size.
type joinStep struct {
	vars string
	est  float64
	got  int
}

func buildPlan(x *optimizer.XForm, db *relation.DB, st *stats.Counters, strat Strategy, est *stats.Estimator, par int) (*plan, error) {
	if par < 1 {
		par = 1
	}
	p := &plan{
		x: x, db: db, st: st, strat: strat, est: est, par: par,
		refBase:   st.RefTuples,
		costCards: map[string]float64{},
		vars:      map[string]*varNode{},
		rangeLst:  map[string][]value.Value{},
		needRange: map[string]bool{},
		rangeSets: map[string]map[string]struct{}{},
		sls:       map[string]*slSpec{},
		ixs:       map[string]*ixSpec{},
		groups:    map[string]*probeGroup{},
		specRTs:   map[*optimizer.SemiSpec]*specRuntime{},
	}
	if err := p.buildVarNodes(); err != nil {
		return nil, err
	}
	if err := p.planConjunctions(); err != nil {
		return nil, err
	}
	p.planRangeLists()
	if err := p.orderVars(); err != nil {
		return nil, err
	}
	if err := p.buildJobs(); err != nil {
		return nil, err
	}
	p.planColumnMasks()
	st.RecordPlanOrder(p.order, p.est != nil)
	return p, nil
}

// buildVarNodes creates nodes for free variables, surviving prefix
// variables, and the strategy-4 specs reachable from the matrix, and
// wires scan-order dependencies.
func (p *plan) buildVarNodes() error {
	add := func(v string, rng *calculus.RangeExpr, free, live bool, rt *specRuntime) error {
		rel, ok := p.db.Relation(rng.Rel)
		if !ok {
			return fmt.Errorf("engine: unknown relation %s", rng.Rel)
		}
		if _, dup := p.vars[v]; dup {
			return fmt.Errorf("engine: duplicate scan variable %s", v)
		}
		p.vars[v] = &varNode{
			v: v, rng: rng, rel: rel, sch: rel.Schema(),
			free: free, live: live, rt: rt, deps: map[string]struct{}{},
		}
		return nil
	}
	for _, d := range p.x.Free {
		if err := add(d.Var, d.Range, true, true, nil); err != nil {
			return err
		}
	}
	for _, q := range p.x.Prefix {
		if err := add(q.Var, q.Range, false, true, nil); err != nil {
			return err
		}
	}
	// Specs reachable from matrix atoms, transitively through nesting.
	// Several specs can stem from the same eliminated variable (one per
	// conjunction for SOME), so spec scan nodes get unique names.
	var reach func(s *optimizer.SemiSpec) error
	reach = func(s *optimizer.SemiSpec) error {
		if _, done := p.specRTs[s]; done {
			return nil
		}
		rt := newSpecRuntime(s)
		p.specRTs[s] = rt
		if err := add(specNodeName(s), s.Range, false, false, rt); err != nil {
			return err
		}
		for _, n := range s.NestedMonadic {
			if err := reach(n.Spec); err != nil {
				return err
			}
			// The nested predicate is evaluated while scanning s.Var.
			p.vars[specNodeName(s)].deps[specNodeName(n.Spec)] = struct{}{}
		}
		return nil
	}
	for _, conj := range p.x.Matrix {
		for _, a := range conj {
			if a.Semi == nil {
				continue
			}
			if err := reach(a.Semi.Spec); err != nil {
				return err
			}
			if a.Semi.Var != "" {
				p.vars[a.Semi.Var].deps[specNodeName(a.Semi.Spec)] = struct{}{}
			}
		}
	}
	return nil
}

// specNodeName is the unique scan-node name of a strategy-4 spec.
func specNodeName(s *optimizer.SemiSpec) string {
	return fmt.Sprintf("%s#%d", s.Var, s.ID)
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sigOf(atoms []optimizer.Atom) string {
	keys := make([]string, len(atoms))
	for i, a := range atoms {
		keys[i] = a.String()
	}
	sort.Strings(keys)
	return strings.Join(keys, "&")
}

// planConjunctions decides, per conjunction, which single lists,
// indexes, indirect joins, and deferred joins to build, creating shared
// structures keyed by content.
func (p *plan) planConjunctions() error {
	for _, conj := range p.x.Matrix {
		cp := &conjPlan{consumed: map[string]bool{}}

		monadic := map[string][]optimizer.Atom{}
		var dyadics []*calculus.Cmp
		for _, a := range conj {
			vars := a.Vars()
			switch len(vars) {
			case 0:
				if a.Semi == nil {
					return fmt.Errorf("engine: constant plain atom %s survived simplification", a)
				}
				cp.consts = append(cp.consts, p.specRTs[a.Semi.Spec])
			case 1:
				monadic[vars[0]] = append(monadic[vars[0]], a)
			case 2:
				dyadics = append(dyadics, a.Cmp)
			default:
				return fmt.Errorf("engine: atom %s mentions %d variables", a, len(vars))
			}
		}

		// Assign probe/index sides; collect which variables probe at
		// least one non-deferred term (strategy-2 fusion applies there).
		probesOf := map[string]bool{}
		var assigns []dyAssign
		for _, c := range dyadics {
			a, err := p.assignSides(c)
			if err != nil {
				return err
			}
			if !a.deferToComb {
				probesOf[a.probeV] = true
			}
			assigns = append(assigns, a)
		}

		s2 := p.strat&S2 != 0

		// Deferred terms become index-index joins.
		groupAssigns := map[string][]dyAssign{}
		for _, a := range assigns {
			if a.deferToComb {
				dij, err := p.deferredJoinFor(a)
				if err != nil {
					return err
				}
				cp.ijs = append(cp.ijs, dij.out)
				cp.ijNames = append(cp.ijNames, [2]string{dij.lv, dij.rv})
				cp.consumed[dij.lv], cp.consumed[dij.rv] = true, true
				continue
			}
			groupAssigns[a.probeV] = append(groupAssigns[a.probeV], a)
		}

		// Probe groups, one per probing variable of this conjunction.
		for _, pv := range sortedKeys(groupAssigns) {
			as := groupAssigns[pv]
			var predAtoms []optimizer.Atom
			if s2 {
				predAtoms = monadic[pv]
			}
			grp, err := p.probeGroupFor(pv, as, predAtoms, s2)
			if err != nil {
				return err
			}
			for _, pr := range grp.probes {
				cp.ijs = append(cp.ijs, pr.out)
				cp.ijNames = append(cp.ijNames, [2]string{pv, pr.index.v})
				cp.consumed[pv], cp.consumed[pr.index.v] = true, true
			}
		}

		// Single lists for variables whose monadic atoms were not folded
		// into a probe group.
		for _, v := range sortedKeys(monadic) {
			if s2 && probesOf[v] {
				continue
			}
			if s2 {
				// Strategy 2 without a dyadic term: one single list for
				// all monadic terms of the conjunction.
				sl, err := p.singleListFor(v, monadic[v])
				if err != nil {
					return err
				}
				cp.sls = append(cp.sls, sl)
			} else {
				// Standard algorithm: one single list per monadic term.
				for _, a := range monadic[v] {
					sl, err := p.singleListFor(v, []optimizer.Atom{a})
					if err != nil {
						return err
					}
					cp.sls = append(cp.sls, sl)
				}
			}
			cp.consumed[v] = true
		}
		p.conjs = append(p.conjs, cp)
	}
	return nil
}

// assignSides picks the probe and index side of a dyadic term: the
// earlier-scanned variable is indexed, the later-scanned probes. When
// both variables range over the same relation and scans are fused
// (strategy 1), the term defers to an index-index join.
func (p *plan) assignSides(c *calculus.Cmp) (dyAssign, error) {
	lf, lok := c.L.(calculus.Field)
	rf, rok := c.R.(calculus.Field)
	if !lok || !rok {
		return dyAssign{}, fmt.Errorf("engine: dyadic term %s lacks two field operands", c)
	}
	lNode, rNode := p.vars[lf.Var], p.vars[rf.Var]
	if lNode == nil || rNode == nil {
		return dyAssign{}, fmt.Errorf("engine: dyadic term %s over unplanned variable", c)
	}
	a := dyAssign{c: c}
	switch {
	case lNode.rel == rNode.rel && p.strat&S1 != 0:
		a.deferToComb = true
		a.probeV, a.ixV = lf.Var, rf.Var
		a.probeF, a.ixF = lf, rf
		a.op = c.Op
	case p.scanBefore(rf.Var, lf.Var):
		a.probeV, a.ixV = lf.Var, rf.Var
		a.probeF, a.ixF = lf, rf
		a.op = c.Op
	default:
		a.probeV, a.ixV = rf.Var, lf.Var
		a.probeF, a.ixF = rf, lf
		a.op = c.Op.Flip()
	}
	if !a.deferToComb {
		// The probe's scan must run after the index's scan.
		p.vars[a.probeV].deps[a.ixV] = struct{}{}
	}
	return a, nil
}

// scanBefore reports whether a's scan will precede b's in the planned
// ordering. Statically that is the base ordering (specs first in
// creation order, then prefix right-to-left, then free variables); with
// an estimator it is the cost ordering of costBefore. Either way it is a
// fixed total order: dependency edges added from it all point forward in
// it, and the topological sort of orderVars breaks ties with the same
// order, so it is a sound oracle for index-side selection.
func (p *plan) scanBefore(a, b string) bool {
	if p.est == nil {
		return p.basePriority(a) < p.basePriority(b)
	}
	return p.costBefore(a, b)
}

// costBefore orders scans by descending estimated effective cardinality
// (ties fall back to the base priority). The later scan of a dyadic term
// is the probe side, which is where monadic restrictions apply during
// probing (strategy 2) and whose post-restriction cardinality bounds the
// indirect join — so the variable expected to retain the fewest elements
// scans last, probing with few tuples and keeping the indirect join
// small, while the bulky side merely gets indexed.
func (p *plan) costBefore(a, b string) bool {
	ca, cb := p.estCard(a), p.estCard(b)
	if ca != cb {
		return ca > cb
	}
	return p.basePriority(a) < p.basePriority(b)
}

// estCard estimates the number of elements of v's range that survive
// its range filter and its monadic matrix restrictions — the variable's
// effective cardinality in the combination phase.
func (p *plan) estCard(v string) float64 {
	if c, ok := p.costCards[v]; ok {
		return c
	}
	node := p.vars[v]
	sel := 1.0
	if node.rng.Extended() {
		sel *= optimizer.FormulaSelectivity(p.est, node.rng.Rel, node.rng.FilterVar, node.rng.Filter)
	}
	if node.rt != nil {
		spec := node.rt.spec
		for _, m := range spec.Monadic {
			sel *= optimizer.TermSelectivity(p.est, node.rng.Rel, spec.Var, m)
		}
		for range spec.NestedMonadic {
			sel *= stats.DefaultSemiSel
		}
	} else {
		sel *= p.matrixSelectivity(v)
	}
	c := p.est.Card(node.rng.Rel) * sel
	p.costCards[v] = c
	return c
}

// matrixSelectivity estimates the monadic restriction the matrix puts on
// v: per conjunction mentioning v, the product of its monadic-term
// selectivities over v; across the disjunction, the maximum (a union
// bound — an element survives if any disjunct admits it). Conjunctions
// not mentioning v leave it unrestricted. Terms that are witness copies
// of extracted range-filter conjuncts are skipped — their selectivity is
// already counted through the filter, and multiplying both would square
// it.
func (p *plan) matrixSelectivity(v string) float64 {
	node := p.vars[v]
	inFilter := p.filterTermKeys(v)
	best, mentioned := 0.0, false
	for _, conj := range p.x.Matrix {
		s, hasV := 1.0, false
		for _, a := range conj {
			vars := a.Vars()
			if len(vars) != 1 || vars[0] != v {
				for _, av := range vars {
					if av == v {
						hasV = true
					}
				}
				continue
			}
			hasV = true
			if a.Cmp != nil {
				if !inFilter[a.Cmp.String()] {
					s *= optimizer.TermSelectivity(p.est, node.rng.Rel, v, a.Cmp)
				}
			} else {
				s *= stats.DefaultSemiSel
			}
		}
		if !hasV {
			return 1 // some disjunct admits every element of the range
		}
		if !mentioned || s > best {
			best, mentioned = s, true
		}
	}
	if !mentioned {
		return 1
	}
	return best
}

// filterTermKeys returns the string forms of the comparison conjuncts of
// v's range filter, renamed to v — the shape extraction's witness copies
// take in the matrix.
func (p *plan) filterTermKeys(v string) map[string]bool {
	rng := p.vars[v].rng
	if !rng.Extended() {
		return nil
	}
	keys := map[string]bool{}
	var walk func(f calculus.Formula)
	walk = func(f calculus.Formula) {
		switch g := f.(type) {
		case *calculus.And:
			for _, sub := range g.Fs {
				walk(sub)
			}
		case *calculus.Cmp:
			t := calculus.Formula(g)
			if rng.FilterVar != v {
				t = calculus.RenameVar(calculus.Clone(g), rng.FilterVar, v)
			}
			if c, ok := t.(*calculus.Cmp); ok {
				keys[c.String()] = true
			}
		}
	}
	walk(rng.Filter)
	return keys
}

func (p *plan) basePriority(v string) int {
	n := p.vars[v]
	if n.rt != nil {
		return n.rt.spec.ID
	}
	base := len(p.specRTs)
	for i := len(p.x.Prefix) - 1; i >= 0; i-- {
		if p.x.Prefix[i].Var == v {
			return base + (len(p.x.Prefix) - 1 - i)
		}
	}
	base += len(p.x.Prefix)
	for i, d := range p.x.Free {
		if d.Var == v {
			return base + i
		}
	}
	return base + len(p.x.Free)
}

// transientIndexSelThreshold gates the cost-based choice between
// probing a permanent index and building a transient one: when the
// variable's range filter keeps at most this fraction of the relation,
// a transient index over the survivors beats filtered permanent-index
// probes (see usePermIndex).
const transientIndexSelThreshold = 0.5

// usePermIndex decides, for a variable with a permanent index on the
// needed component, whether to probe it or to build a transient index
// instead. The static plan keeps the paper's rule — permanent indexes
// always win ("the first step can be omitted, if permanent indexes
// exist"). Under cost-based planning the comparison is real: with an
// extended range the permanent index covers the whole relation, every
// probe's hits must be filtered against the range list, and ordered or
// <> probes traverse entries the filter would have discarded — while
// the transient index is built during a scan the extended range
// materializes anyway (the range list forces it), so its marginal build
// cost is one Add per surviving tuple. When the filter is selective the
// transient index wins; when it keeps most of the relation, skipping
// the build and probing the permanent index wins.
func (p *plan) usePermIndex(node *varNode) bool {
	// Without strategy 1's scan fusion every structure pays its own
	// scan, so a transient build is never free — keep the permanent
	// index.
	if p.est == nil || !node.rng.Extended() || p.strat&S1 == 0 {
		return true
	}
	sel := optimizer.FormulaSelectivity(p.est, node.rng.Rel, node.rng.FilterVar, node.rng.Filter)
	return sel > transientIndexSelThreshold
}

func (p *plan) indexFor(v string, f calculus.Field) (*ixSpec, error) {
	node := p.vars[v]
	ci, ok := node.sch.ColIndex(f.Col)
	if !ok {
		return nil, fmt.Errorf("engine: relation %s has no component %s", node.sch.Name, f.Col)
	}
	key := "ix|" + v + "|" + f.Col
	if ix, ok := p.ixs[key]; ok {
		return ix, nil
	}
	if ix, ok := p.ixs["permix|"+v+"|"+f.Col]; ok {
		return ix, nil
	}
	ix := &ixSpec{key: key, v: v, colIdx: ci}
	if perm, ok := node.rel.Index(f.Col); ok && p.usePermIndex(node) {
		// Permanent access path: no build task; filter hits when the
		// range is extended.
		ix.perm = perm
		ix.filtered = node.rng.Extended()
		ix.key = "permix|" + v + "|" + f.Col
	} else {
		ix.out = collection.NewIndex(node.rng.Rel, f.Col)
	}
	p.ixs[ix.key] = ix
	return ix, nil
}

// planRangeLists decides which live variables need materialized range
// lists: universal variables (the division divisor), variables some
// conjunction leaves unconstrained (Cartesian padding), variables with
// extended ranges (the Lemma 1 adaptation must detect emptiness), and
// free variables under a constant-TRUE matrix. Everything else gets its
// references through single lists and indirect joins, so skipping the
// list can make whole scans unnecessary when permanent indexes exist.
func (p *plan) planRangeLists() {
	constTrue := p.x.Const != nil && *p.x.Const
	for _, q := range p.x.Prefix {
		if q.All || q.Range.Extended() {
			p.needRange[q.Var] = true
		}
	}
	for _, d := range p.x.Free {
		if constTrue || d.Range.Extended() {
			p.needRange[d.Var] = true
		}
	}
	for _, cp := range p.conjs {
		for _, v := range p.liveVars() {
			if !cp.consumed[v] {
				p.needRange[v] = true
			}
		}
	}
}

// publishRange stores a variable's collected range list, under the
// plan lock: jobs of other variables may concurrently consult range
// sets while this one's scan finishes.
func (p *plan) publishRange(v string, refs []value.Value) {
	p.mu.Lock()
	p.rangeLst[v] = refs
	p.mu.Unlock()
}

// rangeSet returns (building lazily, under the plan lock) the set of
// encoded references in v's range list; valid once v's scan has
// completed — which the scheduler's dependency edges guarantee for
// every prober.
func (p *plan) rangeSet(v string) map[string]struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s, ok := p.rangeSets[v]; ok {
		return s
	}
	s := make(map[string]struct{}, len(p.rangeLst[v]))
	for _, ref := range p.rangeLst[v] {
		s[value.EncodeKey([]value.Value{ref})] = struct{}{}
	}
	p.rangeSets[v] = s
	return s
}

func (p *plan) singleListFor(v string, atoms []optimizer.Atom) (*slSpec, error) {
	key := "sl|" + v + "|" + sigOf(atoms)
	if sl, ok := p.sls[key]; ok {
		return sl, nil
	}
	preds, err := p.compileAtoms(v, atoms)
	if err != nil {
		return nil, err
	}
	sl := &slSpec{key: key, v: v, label: sigOf(atoms), preds: preds, out: collection.NewSingleList(v)}
	p.sls[key] = sl
	return sl, nil
}

// probeGroupFor creates (or reuses) the probe group for probing variable
// pv with the given assignments and strategy-2 predicate atoms.
func (p *plan) probeGroupFor(pv string, as []dyAssign, predAtoms []optimizer.Atom, mutual bool) (*probeGroup, error) {
	node := p.vars[pv]
	termKeys := make([]string, len(as))
	for i, a := range as {
		termKeys[i] = a.c.String()
	}
	sort.Strings(termKeys)
	key := "grp|" + pv + "|" + sigOf(predAtoms) + "|" + strings.Join(termKeys, "&")
	if grp, ok := p.groups[key]; ok {
		return grp, nil
	}
	preds, err := p.compileAtoms(pv, predAtoms)
	if err != nil {
		return nil, err
	}
	grp := &probeGroup{key: key, v: pv, preds: preds, mutual: mutual}
	for _, a := range as {
		ci, ok := node.sch.ColIndex(a.probeF.Col)
		if !ok {
			return nil, fmt.Errorf("engine: relation %s has no component %s", node.sch.Name, a.probeF.Col)
		}
		ix, err := p.indexFor(a.ixV, a.ixF)
		if err != nil {
			return nil, err
		}
		grp.probes = append(grp.probes, probeRef{
			op: a.op, probeCol: ci, index: ix,
			out: collection.NewIndirectJoin(pv, a.ixV),
		})
	}
	p.groups[key] = grp
	return grp, nil
}

// deferredJoinFor creates (or reuses) an index-index join for a term
// whose sides share one fused scan.
func (p *plan) deferredJoinFor(a dyAssign) (*deferredIJ, error) {
	key := "dij|" + a.c.String()
	for _, d := range p.deferred {
		if d.key == key {
			return d, nil
		}
	}
	lIx, err := p.indexFor(a.probeF.Var, a.probeF)
	if err != nil {
		return nil, err
	}
	rIx, err := p.indexFor(a.ixF.Var, a.ixF)
	if err != nil {
		return nil, err
	}
	d := &deferredIJ{
		key: key, lv: a.probeF.Var, rv: a.ixF.Var, op: a.c.Op,
		lIx: lIx, rIx: rIx,
		out: collection.NewIndirectJoin(a.probeF.Var, a.ixF.Var),
	}
	p.deferred = append(p.deferred, d)
	return d, nil
}

// compileAtoms compiles monadic atoms over v: plain comparisons in
// bulk, derived strategy-4 atoms lifted row-wise.
func (p *plan) compileAtoms(v string, atoms []optimizer.Atom) ([]batchPred, error) {
	node := p.vars[v]
	out := make([]batchPred, 0, len(atoms))
	for _, a := range atoms {
		if a.Cmp != nil {
			pr, err := compileMonadic(a.Cmp, v, node.sch)
			if err != nil {
				return nil, err
			}
			out = append(out, pr)
			continue
		}
		rt, ok := p.specRTs[a.Semi.Spec]
		if !ok {
			return nil, fmt.Errorf("engine: derived atom %s references unplanned spec", a)
		}
		pr, err := compileSemiAtom(a.Semi, node.sch, rt)
		if err != nil {
			return nil, err
		}
		out = append(out, liftRowPred(pr))
	}
	return out, nil
}

// orderVars topologically sorts the variables by scan dependencies,
// breaking ties with the same total order assignSides consulted: the
// base priority (specs in creation order, prefix right-to-left, then
// free variables) statically, or descending effective cardinality under
// cost-based planning.
func (p *plan) orderVars() error {
	names := make([]string, 0, len(p.vars))
	for v := range p.vars {
		names = append(names, v)
	}
	sort.Slice(names, func(i, j int) bool {
		return p.scanBefore(names[i], names[j])
	})
	done := map[string]bool{}
	for len(p.order) < len(names) {
		progressed := false
		for _, v := range names {
			if done[v] {
				continue
			}
			ready := true
			for dep := range p.vars[v].deps {
				if !done[dep] {
					ready = false
					break
				}
			}
			if ready {
				p.order = append(p.order, v)
				done[v] = true
				progressed = true
			}
		}
		if !progressed {
			return fmt.Errorf("engine: cyclic scan dependencies among %v", names)
		}
	}
	return nil
}

// transDeps returns the transitive dependency closure of v.
func (p *plan) transDeps(v string) map[string]bool {
	out := map[string]bool{}
	var rec func(string)
	rec = func(u string) {
		for d := range p.vars[u].deps {
			if !out[d] {
				out[d] = true
				rec(d)
			}
		}
	}
	rec(v)
	return out
}

// buildJobs turns the ordered variables into scan jobs. Under strategy 1
// all tasks of one relation fuse into a single scan: a relation's job is
// emitted once every one of its variables has its dependencies (index
// builds and value lists it probes) satisfied by earlier jobs. When
// cross-relation dependencies make that impossible (a cycle at the
// relation level), the relation is scanned more than once as a fallback.
// Without strategy 1, every structure is built by its own scan — the
// paper's unoptimized access pattern.
func (p *plan) buildJobs() error {
	if p.strat&S1 == 0 {
		for _, v := range p.order {
			node := p.vars[v]
			for _, t := range p.tasksForVar(v) {
				p.jobs = append(p.jobs, &scanJob{rel: node.rel, vars: []string{v}, tasks: []scanTask{t}})
			}
		}
		return nil
	}
	done := map[string]bool{}
	remaining := append([]string(nil), p.order...)
	ready := func(v string) bool {
		for d := range p.vars[v].deps {
			if !done[d] {
				return false
			}
		}
		return true
	}
	emit := func(vars []string) {
		job := &scanJob{rel: p.vars[vars[0]].rel}
		for _, v := range vars {
			job.vars = append(job.vars, v)
			job.tasks = append(job.tasks, p.tasksForVar(v)...)
			done[v] = true
		}
		// A variable served entirely by permanent indexes needs no scan.
		if len(job.tasks) > 0 {
			p.jobs = append(p.jobs, job)
		}
		kept := remaining[:0]
		for _, v := range remaining {
			if !done[v] {
				kept = append(kept, v)
			}
		}
		remaining = kept
	}
	for len(remaining) > 0 {
		// Prefer the first relation (by variable order) whose pending
		// variables are all ready: its scan can be fused completely.
		emitted := false
		for _, v := range remaining {
			rel := p.vars[v].rel
			group := make([]string, 0, 2)
			allReady := true
			for _, w := range remaining {
				if p.vars[w].rel != rel {
					continue
				}
				if !ready(w) {
					allReady = false
					break
				}
				group = append(group, w)
			}
			if allReady {
				emit(group)
				emitted = true
				break
			}
		}
		if emitted {
			continue
		}
		// Relation-level cycle: emit a partial scan with whatever is
		// ready for the first ready variable's relation.
		var group []string
		var rel *relation.Relation
		for _, v := range remaining {
			if !ready(v) {
				continue
			}
			if rel == nil {
				rel = p.vars[v].rel
			}
			if p.vars[v].rel == rel {
				group = append(group, v)
			}
		}
		if len(group) == 0 {
			return fmt.Errorf("engine: cyclic scan dependencies in job scheduling")
		}
		emit(group)
	}
	return nil
}
