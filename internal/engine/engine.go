// Package engine is the PASCAL/R query evaluation system: the
// phase-structured algorithm of section 3.3 of the paper (collection,
// combination, construction) driven by the standardization of section 2
// and the four optimization strategies of section 4.
//
// Evaluation proceeds as follows. The checked selection is standardized
// into prenex/DNF form (assuming non-empty ranges); strategy 3 extracts
// monadic terms into extended range expressions; strategy 4 eliminates
// eligible quantifiers into collection-phase value lists. The physical
// plan schedules base-relation scans — one per relation under strategy
// 1, one per intermediate structure otherwise — and runs the collection
// phase. If any live range turns out empty, the standard form is adapted
// per Lemma 1 and planning repeats ("the compiler assumes that all range
// relations are non-empty but provides information to adapt the standard
// form at runtime if necessary"). The combination phase then joins the
// collected reference structures into n-tuples per conjunction, unions
// the disjunction, and evaluates quantifiers right-to-left (projection
// for SOME, division for ALL). The construction phase dereferences the
// surviving free-variable references and projects the component
// selection.
package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"pascalr/internal/baseline"
	"pascalr/internal/calculus"
	"pascalr/internal/normalize"
	"pascalr/internal/obs"
	"pascalr/internal/optimizer"
	"pascalr/internal/relation"
	"pascalr/internal/stats"
	"pascalr/internal/value"
)

// Strategy is a bit set of the paper's optimization strategies.
type Strategy uint8

// The four strategies of section 4, plus the CNF range extension the
// paper proposes as future work in section 4.3.
const (
	S1   Strategy = 1 << iota // parallel evaluation: one scan per relation
	S2                        // one-step evaluation of nested subexpressions
	S3                        // extended range expressions
	S4                        // quantifier evaluation in the collection phase
	SCNF                      // conjunctive-normal-form range extension (4.3 outlook)
)

// AllStrategies enables the paper's four strategies (SCNF, the stated
// future-work extension, is opted into separately).
const AllStrategies = S1 | S2 | S3 | S4

// String renders the strategy set, e.g. "S1+S3".
func (s Strategy) String() string {
	if s == 0 {
		return "S0"
	}
	var parts []string
	for i, name := range []string{"S1", "S2", "S3", "S4", "SCNF"} {
		if s&(1<<i) != 0 {
			parts = append(parts, name)
		}
	}
	return strings.Join(parts, "+")
}

// Options configures one evaluation.
type Options struct {
	// Strategies selects the optimizations; zero means the unoptimized
	// standard algorithm.
	Strategies Strategy
	// MaxConjunctions bounds DNF growth (0: normalize's default).
	MaxConjunctions int
	// MaxRefTuples bounds the reference tuples materialized by the
	// combination phase (0: unlimited).
	MaxRefTuples int64
	// CostBased drives scan ordering, probe/index side selection,
	// combination-phase join ordering, and the optimizer's extraction and
	// elimination decisions from cardinality estimates instead of the
	// static priorities. False reproduces the paper's static plan.
	CostBased bool
	// Estimator supplies table statistics for cost-based planning; when
	// nil and CostBased is set, Eval uses the database's live statistics
	// (incrementally maintained, no analyze pass).
	Estimator *stats.Estimator
	// maxAdaptations guards the adaptation loop; set by Eval.
	maxAdaptations int
}

// Engine evaluates selections against one database. Engines are safe
// for concurrent use: every execution counts into a private sink that
// merges into the engine's cumulative sink (under stMu) on completion,
// and executions hold the database's read lock during their collection
// phase, so they are race-free against relation writers.
type Engine struct {
	db   *relation.DB
	stMu sync.Mutex
	st   *stats.Counters // caller's sink; may be nil
}

// New creates an engine. Counters, if non-nil, accumulate across
// evaluations.
func New(db *relation.DB, st *stats.Counters) *Engine {
	return &Engine{db: db, st: st}
}

// mergeStats folds one execution's counters into the engine's
// cumulative sink.
func (e *Engine) mergeStats(execSt *stats.Counters) {
	if e.st == nil {
		return
	}
	e.stMu.Lock()
	e.st.Merge(execSt)
	e.stMu.Unlock()
}

// Stats runs f with the engine's cumulative counter sink while holding
// the merge lock, so snapshots and resets cannot race with completing
// executions. With no sink attached, f receives a throwaway empty
// sink.
func (e *Engine) Stats(f func(*stats.Counters)) {
	e.stMu.Lock()
	defer e.stMu.Unlock()
	st := e.st
	if st == nil {
		st = &stats.Counters{}
	}
	f(st)
}

// Eval compiles and executes a checked selection (from calculus.Check)
// in one shot and returns the result rows (see Plan.Eval). Callers that
// re-execute the same selection should Compile once and reuse the
// returned Plan.
func (e *Engine) Eval(ctx context.Context, sel *calculus.Selection, info *calculus.Info, opts Options) ([][]value.Value, error) {
	p, err := e.Compile(sel, info, opts)
	if err != nil {
		return nil, err
	}
	return p.Eval(ctx)
}

// prepare folds empty ranges out of the original formula (Lemma 1: the
// prenex transformation is only valid for non-empty ranges, so the
// adaptation must happen before standardization — this is the paper's
// Example 2.2 caveat, where the unadapted normal form would return all
// employees instead of the professors), then runs standardization and
// the logical strategies (3 and 4).
func (e *Engine) prepare(sel *calculus.Selection, opts Options) (*optimizer.XForm, error) {
	return e.prepareFolded(sel, normalize.Fold(sel.Pred, baseline.Emptiness(e.db)), opts)
}

// prepareFolded is prepare for a predicate already adapted to the
// current empty ranges; Plan revalidation computes the fold itself to
// detect staleness, then hands it over.
func (e *Engine) prepareFolded(sel *calculus.Selection, folded calculus.Formula, opts Options) (*optimizer.XForm, error) {
	return e.prepareFoldedCtx(context.Background(), sel, folded, opts)
}

func (e *Engine) prepareFoldedCtx(ctx context.Context, sel *calculus.Selection, folded calculus.Formula, opts Options) (*optimizer.XForm, error) {
	sp := obs.SpanFrom(ctx)
	sel = &calculus.Selection{Proj: sel.Proj, Free: sel.Free, Pred: folded}
	ssp := sp.Start("standardize")
	sf, err := normalize.Standardize(sel, normalize.Options{MaxConjunctions: opts.MaxConjunctions})
	ssp.End()
	if err != nil {
		return nil, err
	}
	osp := sp.Start("optimize")
	defer osp.End()
	// The CNF extension runs first: its free-variable rule ("every
	// conjunction restricts the variable") must judge the original
	// matrix. Plain extraction may remove whole disjuncts (the universal
	// rule), and a disjunct without the restriction is exactly what makes
	// the narrowing unsound.
	if opts.Strategies&SCNF != 0 {
		sf, _ = optimizer.ExtractRangesCNF(sf)
	}
	cm := costModel(opts)
	if opts.Strategies&S3 != 0 {
		sf, _ = optimizer.ExtractRangesCost(sf, cm)
	}
	x := optimizer.FromStandardForm(sf)
	if opts.Strategies&S4 != 0 {
		optimizer.EliminateQuantifiersCost(x, cm)
	}
	return x, nil
}

// ensureEstimator bootstraps cost-based planning: when the caller asked
// for it without supplying statistics, take the database's live
// statistics (incrementally maintained by the mutators — no analyze
// rescans), so Eval and Explain always plan from the same statistics.
// A fail-stopped database returns its sticky error instead: its live
// statistics may hold mutations recovery will not reproduce.
func (e *Engine) ensureEstimator(opts *Options) error {
	if opts.CostBased && opts.Estimator == nil {
		if err := e.db.Err(); err != nil {
			return err
		}
		opts.Estimator = e.db.Estimator()
	}
	return nil
}

// planEstimator returns the estimator the physical planner should use;
// nil keeps the static ordering.
func planEstimator(opts Options) *stats.Estimator {
	if !opts.CostBased {
		return nil
	}
	return opts.Estimator
}

// costModel adapts the options' estimator into the optimizer's cost
// model; nil (the static plan) when cost-based planning is off.
func costModel(opts Options) optimizer.CostModel {
	if !opts.CostBased || opts.Estimator == nil {
		return nil
	}
	return opts.Estimator
}

// collectWithAdaptation plans and runs the collection phase, re-adapting
// and re-planning whenever a live range turns out to be empty (Lemma 1).
// The plans' structures are lent by ws.
func (e *Engine) collectWithAdaptation(ctx context.Context, x *optimizer.XForm, st *stats.Counters, opts Options, ws *workspace) (*plan, error) {
	for attempt := 0; ; attempt++ {
		if attempt > opts.maxAdaptations {
			return nil, fmt.Errorf("engine: adaptation loop did not converge")
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p, err := buildPlan(x, e.db, st, opts.Strategies, planEstimator(opts), ws)
		if err != nil {
			return nil, err
		}
		if sp := obs.SpanFrom(ctx); sp != nil {
			p.collSp = sp.Start("collection")
			if attempt > 0 {
				p.collSp.SetInt("adaptation", int64(attempt))
			}
			p.jobSpans = make([]*obs.Span, len(p.jobs))
		}
		err = p.runScans(ctx)
		p.collSp.End()
		if err != nil {
			return nil, err
		}
		empties := map[string]bool{}
		for _, v := range p.emptyLiveVars() {
			if !p.vars[v].free {
				empties[v] = true
			}
		}
		if len(empties) == 0 {
			return p, nil
		}
		adaptXForm(x, empties)
	}
}

// adaptXForm applies the Lemma 1 rules to the prenex form when prefix
// ranges turn out empty at run time. After prepare's pre-fold, the only
// way a prefix range can be empty is through an extended range created
// by strategy 3, and the adaptation undoes exactly the extraction step
// that the emptiness invalidated:
//
//   - SOME over an empty extended range falsifies every conjunction
//     containing the variable (each needs a witness satisfying the
//     extracted filter), restoring the surviving disjuncts that the
//     rule-2 rewrap assumed;
//   - ALL over an empty extended range is vacuously TRUE, making the
//     whole remaining subformula TRUE and discarding the inner prefix.
//
// The existential drops run first: they are matrix-local and valid
// regardless of the other ranges, whereas a universal truncation erases
// the matrix the drops need to inspect.
func adaptXForm(x *optimizer.XForm, empty map[string]bool) {
	for i := len(x.Prefix) - 1; i >= 0; i-- {
		q := x.Prefix[i]
		if !empty[q.Var] || q.All {
			continue
		}
		// Existential: drop the conjunctions mentioning the variable.
		if x.Const != nil {
			if *x.Const {
				f := false
				x.Const = &f
			}
		} else {
			kept := x.Matrix[:0]
			for _, conj := range x.Matrix {
				mentions := false
				for _, a := range conj {
					for _, av := range a.Vars() {
						if av == q.Var {
							mentions = true
						}
					}
				}
				if !mentions {
					kept = append(kept, conj)
				}
			}
			x.Matrix = kept
			if len(kept) == 0 {
				f := false
				x.Const = &f
				x.Matrix = nil
			}
		}
		x.Prefix = append(x.Prefix[:i], x.Prefix[i+1:]...)
	}
	for i := len(x.Prefix) - 1; i >= 0; i-- {
		q := x.Prefix[i]
		if !empty[q.Var] || !q.All {
			continue
		}
		// Universal: vacuously TRUE; everything to the right vanishes.
		t := true
		x.Const = &t
		x.Matrix = nil
		x.Prefix = x.Prefix[:i]
	}
}

// Explain renders the logical and physical plan without executing the
// combination phase. It runs the collection phase's planning only.
func (e *Engine) Explain(sel *calculus.Selection, opts Options) (string, error) {
	if err := e.ensureEstimator(&opts); err != nil {
		return "", err
	}
	x, err := e.prepare(sel, opts)
	if err != nil {
		return "", err
	}
	st := &stats.Counters{}
	ws := getWorkspace()
	defer putWorkspace(ws)
	e.db.RLock()
	p, err := buildPlan(x, e.db, st, opts.Strategies, planEstimator(opts), ws)
	e.db.RUnlock()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "strategies: %s\n", opts.Strategies)
	if p.est != nil {
		fmt.Fprintf(&b, "ordering: cost-based (scan order %s)\n", strings.Join(p.order, " -> "))
	}
	fmt.Fprintf(&b, "transformed query:\n%s", x)
	fmt.Fprintf(&b, "collection phase (%d scans):\n", len(p.jobs))
	for i, job := range p.jobs {
		fmt.Fprintf(&b, "  scan %d: %s (vars %s)\n", i+1, job.rel.Name(), strings.Join(job.vars, ","))
		for _, t := range job.tasks {
			fmt.Fprintf(&b, "    - %s\n", t.describe())
		}
	}
	if len(p.deferred) > 0 {
		b.WriteString("deferred index-index joins:\n")
		for _, d := range p.deferred {
			fmt.Fprintf(&b, "  - %s\n", d.key)
		}
	}
	b.WriteString("combination phase:\n")
	for ci, cp := range p.conjs {
		fmt.Fprintf(&b, "  conjunction %d: %d indirect joins, %d single lists, %d constant gates\n",
			ci, len(cp.ijs), len(cp.sls), len(cp.consts))
	}
	if n := len(p.x.Prefix); n > 0 {
		b.WriteString("quantifier elimination (right to left):\n")
		for i := n - 1; i >= 0; i-- {
			q := p.x.Prefix[i]
			op := "project (SOME)"
			if q.All {
				op = "divide (ALL)"
			}
			fmt.Fprintf(&b, "  - %s: %s\n", q.Var, op)
		}
	}
	return b.String(), nil
}
