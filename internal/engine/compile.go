package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"pascalr/internal/algebra"
	"pascalr/internal/calculus"
	"pascalr/internal/colbatch"
	"pascalr/internal/normalize"
	"pascalr/internal/obs"
	"pascalr/internal/optimizer"
	"pascalr/internal/relation"
	"pascalr/internal/schema"
	"pascalr/internal/stats"
	"pascalr/internal/value"
)

// Plan is a compiled, reusable evaluation plan: the compile-time half of
// the query processor (empty-range fold, standardization, and the
// logical strategies 3/4) run once, with the result held as an immutable
// XForm template. Eval and Rows re-execute the run-time half —
// collection, combination, construction — against the template, so
// repeated executions of one selection skip parsing, checking, and
// standardization entirely.
//
// The template is tagged with the database's content version. An
// execution takes the database read lock once and, under it, revalidates
// the template and runs the collection phase. Revalidation is lazy: while
// the version holds still and the statistics the plan derived itself
// are fresh, the template is reused as is. Otherwise those statistics
// are refreshed, and the template is recompiled if the Lemma 1
// empty-range fold now decides some range differently (the prenex
// transformation assumed the ranges that were non-empty when it ran —
// Example 2.2). Fold and scans read one version, so the only ranges the
// collection phase can find empty are the extended ranges strategy 3
// made, which the runtime adaptation handles (adaptXForm).
//
// A Plan is safe for concurrent execution: revalidation state is
// mutex-guarded, and every execution counts into a private sink merged
// into the engine's cumulative sink on completion. Concurrent relation
// writers wait for the collection phase. The lock order is the
// database content lock (read), then Plan.mu, then the catalog and
// statistics locks DB.Estimator takes — the order writers take them in.
type Plan struct {
	eng  *Engine
	sel  *calculus.Selection
	info *calculus.Info

	mu   sync.Mutex
	opts Options
	// autoEst marks statistics the plan derived itself (Compile with
	// CostBased and no estimator); they are refreshed whenever the
	// database's live statistics change (content mutations AND
	// background rebuilds), and a refresh recompiles the logical
	// template so the estimator-gated strategy decisions track the
	// data. Caller-supplied statistics are left alone — executions
	// that maintain their own cache push fresh statistics through the
	// EvalWith/RowsWith override, which affects physical planning only.
	autoEst bool
	tmpl    *optimizer.XForm
	empties string // emptiness signature of the fold the template assumed (foldEmpty)
	version uint64 // db content version the template was validated against
	// relMuts records, per relation the template ranges over, the
	// mutation counter its statistics were read at — the per-relation
	// staleness key: a mutation of a relation the plan never touches
	// must not force a template recompile.
	relMuts map[string]uint64
}

// Compile runs the compile-time pipeline for a checked selection and
// returns the reusable plan. Like an execution's revalidation, it folds
// and compiles under the database read lock. The selection and info
// must not be mutated afterwards.
func (e *Engine) Compile(sel *calculus.Selection, info *calculus.Info, opts Options) (*Plan, error) {
	return e.CompileCtx(context.Background(), sel, info, opts)
}

// CompileCtx is Compile carrying a context: when the context carries a
// trace span (internal/obs), the standardize and optimize phases record
// child spans. Compilation itself ignores cancellation — it is fast and
// has no mid-point worth aborting at.
func (e *Engine) CompileCtx(ctx context.Context, sel *calculus.Selection, info *calculus.Info, opts Options) (*Plan, error) {
	p := e.newPlan(sel, info, opts)
	e.db.RLock()
	defer e.db.RUnlock()
	if err := p.revalidate(ctx); err != nil {
		return nil, err
	}
	return p, nil
}

// newPlan returns a plan with no template yet: its first revalidation
// compiles one. With CostBased and no estimator the plan derives its
// statistics from the database's live ones.
func (e *Engine) newPlan(sel *calculus.Selection, info *calculus.Info, opts Options) *Plan {
	return &Plan{eng: e, sel: sel, info: info, opts: opts, autoEst: opts.CostBased && opts.Estimator == nil}
}

// foldEmpty folds pred over the current emptiness of its quantifier
// ranges (Lemma 1) and returns the fold with its emptiness signature:
// one byte per range the fold consulted, in the order it consulted
// them. The fold is a function of that sequence, so equal signatures
// mean equal folds. The caller holds the database read lock.
func foldEmpty(db *relation.DB, pred calculus.Formula) (calculus.Formula, string, error) {
	var sig []byte
	var err error
	folded := normalize.Fold(pred, func(r *calculus.RangeExpr) bool {
		empty := false
		if err == nil {
			empty, err = rangeEmpty(db, r)
		}
		if empty {
			sig = append(sig, 'e')
		} else {
			sig = append(sig, 'n')
		}
		return empty
	})
	return folded, string(sig), err
}

// errSelected stops an emptiness scan at the first row it selects.
var errSelected = errors.New("engine: range selects a row")

// rangeEmpty reports whether r selects no element, without taking the
// database read lock its caller holds: a base range's emptiness is its
// relation's atomic Len, an extended range's a batch scan of its
// compiled filter that stops at the first selected row. It counts
// nothing; the fold is compile work, not the collection phase. A
// fail-stopped database returns its sticky error: its in-memory
// contents may hold mutations recovery will not reproduce.
func rangeEmpty(db *relation.DB, r *calculus.RangeExpr) (bool, error) {
	if err := db.Err(); err != nil {
		return false, err
	}
	rel, ok := db.Relation(r.Rel)
	if !ok {
		return false, fmt.Errorf("engine: unknown relation %s", r.Rel)
	}
	if !r.Extended() || rel.Len() == 0 {
		return rel.Len() == 0, nil
	}
	pred, err := compileFilter(r.Filter, r.FilterVar, rel.Schema())
	if err != nil {
		return false, err
	}
	cols := append([]int{}, pred.cols...)
	slices.Sort(cols)
	b := colbatch.New(len(rel.Schema().Cols), batchSize)
	var sel colbatch.Bitmap
	err = rel.ScanBatches(nil, 0, rel.SlotSpan(), b, slices.Compact(cols), func() error {
		sel.SetAll(b.Len())
		if err := pred.run(b, &sel, nil); err != nil {
			return err
		}
		if !sel.Empty() {
			return errSelected
		}
		return nil
	})
	if errors.Is(err, errSelected) {
		return false, nil
	}
	return err == nil, err
}

// captureMutCounts snapshots every relation's mutation counter. Callers
// must capture BEFORE fetching the estimator they compile with, so a
// mutation racing the compile leaves a counter mismatch (an unnecessary
// refresh next execution) rather than a fresh-tagged stale template.
func (p *Plan) captureMutCounts() map[string]uint64 {
	muts := map[string]uint64{}
	for _, r := range p.eng.db.Relations() {
		muts[r.Name()] = r.MutCount()
	}
	return muts
}

// templateMuts keeps the captured counters of exactly the relations the
// compiled template ranges over.
func templateMuts(x *optimizer.XForm, muts map[string]uint64) map[string]uint64 {
	out := map[string]uint64{}
	keep := func(rel string) {
		if m, ok := muts[rel]; ok {
			out[rel] = m
		}
	}
	for _, d := range x.Free {
		keep(d.Range.Rel)
	}
	for _, q := range x.Prefix {
		keep(q.Range.Rel)
	}
	for _, s := range x.Specs {
		keep(s.Range.Rel)
	}
	return out
}

// statsStale reports whether any relation the template ranges over
// mutated (or had its statistics rebuilt) since the template was
// compiled.
func (p *Plan) statsStale() bool {
	for rel, mut := range p.relMuts {
		if r, ok := p.eng.db.Relation(rel); ok && r.MutCount() != mut {
			return true
		}
	}
	return false
}

// instance revalidates the template and returns a private XForm copy
// for one execution (the runtime adaptation mutates it) together with
// the options to run under. The caller holds the database read lock, so
// the version, the fold and the scans that follow all read the same
// contents.
func (p *Plan) instance() (*optimizer.XForm, Options, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.revalidate(context.Background()); err != nil {
		return nil, Options{}, err
	}
	return p.tmpl.Clone(), p.opts, nil
}

// revalidate compiles the template if the plan has none, or brings it
// up to the database's content version. The caller holds the database
// read lock and, once the plan is shared, p.mu.
func (p *Plan) revalidate(ctx context.Context) error {
	statsChanged := false
	var muts map[string]uint64
	if p.autoEst && p.statsStale() {
		// A relation this plan ranges over mutated or had its
		// statistics rebuilt (rebuilds deliberately do not move the
		// content version, so this must not hide behind the version
		// check below); mutations of unrelated relations are ignored —
		// per-relation staleness, matched to the snapshot cache's
		// granularity. Counters are captured before the estimator (see
		// captureMutCounts), and the estimator itself is epoch-cached,
		// so the refresh allocates only when something actually changed.
		if err := p.eng.db.Err(); err != nil {
			return err
		}
		muts = p.captureMutCounts()
		p.opts.Estimator = p.eng.db.Estimator()
		statsChanged = true
	}
	if v := p.eng.db.Version(); p.tmpl == nil || v != p.version || statsChanged {
		folded, empties, err := foldEmpty(p.eng.db, p.sel.Pred)
		if err != nil {
			return err
		}
		// Recompile the template when the empty-range fold changed
		// (Lemma 1) — and also when this plan's statistics did: the
		// logical strategies bake estimator-driven decisions (the
		// extraction gate, the elimination order) into the template,
		// which would otherwise stay frozen at compile-time statistics
		// forever.
		if p.tmpl == nil || empties != p.empties || statsChanged {
			if muts == nil {
				// A first compile, or the fold changed while every
				// tracked relation held still: a relation the template
				// does not range over (typically one the fold eliminated
				// while it was empty) mutated. Self-derived statistics
				// must refresh here too — relMuts is restamped with
				// current counters below, which would otherwise tag an
				// older estimator as fresh forever. Counters first,
				// estimator second (see captureMutCounts).
				muts = p.captureMutCounts()
				if p.autoEst {
					if err := p.eng.db.Err(); err != nil {
						return err
					}
					p.opts.Estimator = p.eng.db.Estimator()
				}
			}
			x, err := p.eng.prepareFolded(ctx, p.sel, folded, p.opts)
			if err != nil {
				return err
			}
			p.tmpl, p.empties = x, empties
			p.relMuts = templateMuts(x, muts)
		}
		p.version = v
	}
	return nil
}

// Schema returns the checked result schema the plan's rows are under.
func (p *Plan) Schema() *schema.RelSchema { return p.info.Result }

// maxStaleRetries bounds Eval's optimistic re-executions when a
// concurrent writer deletes referenced elements between the combination
// phase and construction.
const maxStaleRetries = 4

// Eval executes the plan to completion and returns the materialized
// result: the distinct rows in the order construction yields them,
// under the checked result schema. It is the run-time half of the old
// one-shot Eval: collection, combination, and construction against the
// compiled template. When a concurrent writer deletes referenced
// elements before construction finishes (relation.ErrStale), Eval
// re-executes against the new contents — optimistic concurrency for the
// materializing path; only a writer that keeps winning the race through
// every retry surfaces the error.
func (p *Plan) Eval(ctx context.Context) ([][]value.Value, error) {
	return p.EvalWith(ctx, nil)
}

// EvalWith is Eval with per-execution option overrides: the override
// runs against a private copy of the plan's options after
// revalidation, so concurrent executions with different
// execution-time options (budget, statistics) never
// contaminate each other or the plan. It drains a cursor and returns
// the cursor's already-distinct rows, which belong to the caller.
func (p *Plan) EvalWith(ctx context.Context, override func(*Options)) ([][]value.Value, error) {
	var err error
	for attempt := 0; attempt <= maxStaleRetries; attempt++ {
		var cur *Cursor
		if cur, err = p.RowsWith(ctx, override); err != nil {
			return nil, err
		}
		for cur.Next() {
		}
		err = cur.Err()
		var rows [][]value.Value
		if err == nil {
			rows = cur.yieldedRows()
		}
		cur.Close()
		if !errors.Is(err, relation.ErrStale) {
			return rows, err
		}
	}
	return nil, err
}

// Rows executes the collection and combination phases eagerly and
// returns a streaming cursor that runs the construction phase one
// result tuple at a time. The cursor observes ctx: cancellation
// mid-stream surfaces as ctx.Err() from Err after Next returns false.
//
// The collection phase holds the database read lock: one acquisition
// covers the template's revalidation and every scan and permanent-index
// probe of the execution, so concurrent Exec writers serialize against
// it. Counters accumulate in a per-execution sink that merges into the
// engine's cumulative sink when the phases complete — successful or
// not.
func (p *Plan) Rows(ctx context.Context) (*Cursor, error) {
	return p.RowsWith(ctx, nil)
}

// RowsWith is Rows with per-execution option overrides; see EvalWith.
func (p *Plan) RowsWith(ctx context.Context, override func(*Options)) (*Cursor, error) {
	cur, _, err := p.rowsWithPlan(ctx, override, false)
	return cur, err
}

// rowsWithPlan is RowsWith returning the executed physical plan too,
// for EXPLAIN reporting (the plan holds the materialized range-list
// sizes, structures, and join log the report compares estimates
// against).
//
// The execution takes one workspace from the pool, which lends the
// structures of all three phases. Once combine has built the final
// reference relation the workspace takes the rest back — unless
// keepPlan is set, for a caller that reads the returned plan's
// structures until it closes the cursor. The cursor owns the workspace
// from then on; an execution that fails pools it again at once.
func (p *Plan) rowsWithPlan(ctx context.Context, override func(*Options), keepPlan bool) (*Cursor, *plan, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	ws := getWorkspace()
	cur, pp, err := p.execute(ctx, override, keepPlan, ws)
	if err != nil {
		putWorkspace(ws)
		return nil, nil, err
	}
	return cur, pp, nil
}

// execute runs the collection and combination phases with the
// structures ws lends and returns the cursor that takes ws over.
func (p *Plan) execute(ctx context.Context, override func(*Options), keepPlan bool, ws *workspace) (*Cursor, *plan, error) {
	e := p.eng
	execSt := &stats.Counters{}
	defer e.mergeStats(execSt)
	mQueries.Inc()
	qStart := time.Now()
	defer func() { mQueryLatency.Observe(time.Since(qStart)) }()
	sp := obs.SpanFrom(ctx)
	if sp != nil {
		// Runs before the deferred mergeStats (LIFO), when the
		// execution's private sink is complete: the slow-query log reads
		// these per-execution counter deltas off the root span.
		defer func() {
			sp.SetInt("tuples_read", execSt.TuplesRead)
			sp.SetInt("index_probes", execSt.IndexProbes)
			sp.SetInt("comparisons", execSt.Comparisons)
			sp.SetInt("ref_tuples", execSt.RefTuples)
		}()
	}

	var pp *plan
	empty := false
	e.db.RLock()
	x, opts, err := p.instance()
	if err == nil {
		if override != nil {
			override(&opts)
		}
		opts.maxAdaptations = len(x.Prefix) + len(x.Free) + len(x.Specs) + 2
		pp, err = e.collectWithAdaptation(ctx, x, execSt, opts, ws)
	}
	if err == nil {
		// An empty free range, or a constant-FALSE matrix, yields the
		// empty relation (nil refs). Decided under the lock: a free range
		// with no materialized list is judged by its relation's Len,
		// which a concurrent assignment passes through zero.
		empty = pp.resultEmpty()
	}
	e.db.RUnlock()
	if err != nil {
		return nil, nil, err
	}
	if len(pp.jobSpans) > 0 {
		pp.annotateScanSpans()
	}

	var refs *algebra.RefRel
	if !empty {
		pp.combSp = sp.Start("combination")
		refs, err = pp.combine(ctx, opts.MaxRefTuples)
		if err != nil {
			pp.combSp.End()
			return nil, nil, err
		}
		if pp.combSp != nil {
			pp.combSp.SetInt("ref_tuples", int64(refs.Len()))
			pp.combSp.End()
		}
	}
	if !keepPlan {
		ws.release(refs)
	}
	cur, err := newCursor(ctx, e.db, p.sel, p.info.Result, refs, ws)
	if err != nil {
		return nil, nil, err
	}
	return cur, pp, nil
}
