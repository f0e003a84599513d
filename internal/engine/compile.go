package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"pascalr/internal/algebra"
	"pascalr/internal/baseline"
	"pascalr/internal/calculus"
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
// The template is tagged with the database's content version. When the
// database mutates, the next execution revalidates: statistics the plan
// derived itself are refreshed, and the template is recompiled if the
// Lemma 1 empty-range fold would now produce a different formula (the
// prenex transformation assumed the ranges that were non-empty at
// compile time — Example 2.2). Executions therefore always see current
// data; only the compile work is amortized.
//
// A Plan is safe for concurrent execution: revalidation state is
// mutex-guarded, every execution counts into a private sink merged into
// the engine's cumulative sink on completion, and the collection phase
// runs under the database's read lock — validated against the content
// version the template assumed, so each execution reads one consistent
// snapshot and concurrent relation writers simply wait.
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
	foldKey string // rendering of the folded predicate the template assumed
	// empty lists the ranges the fold at version took as empty.
	empty   []*calculus.RangeExpr
	version uint64 // db content version the template was validated against
	// relMuts records, per relation the template ranges over, the
	// mutation counter its statistics were read at — the per-relation
	// staleness key: a mutation of a relation the plan never touches
	// must not force a template recompile.
	relMuts map[string]uint64
}

// Compile runs the compile-time pipeline for a checked selection and
// returns the reusable plan. The selection and info must not be mutated
// afterwards.
func (e *Engine) Compile(sel *calculus.Selection, info *calculus.Info, opts Options) (*Plan, error) {
	return e.CompileCtx(context.Background(), sel, info, opts)
}

// CompileCtx is Compile carrying a context: when the context carries a
// trace span (internal/obs), the standardize and optimize phases record
// child spans. Compilation itself ignores cancellation — it is fast and
// has no mid-point worth aborting at.
func (e *Engine) CompileCtx(ctx context.Context, sel *calculus.Selection, info *calculus.Info, opts Options) (*Plan, error) {
	autoEst := opts.CostBased && opts.Estimator == nil
	p := &Plan{eng: e, sel: sel, info: info, autoEst: autoEst, version: e.db.Version()}
	// Counters first, estimator second: a mutation racing the compile
	// then leaves a counter mismatch (an unnecessary refresh next
	// execution), never a fresh-tagged stale estimator.
	muts := p.captureMutCounts()
	if err := e.ensureEstimator(&opts); err != nil {
		return nil, err
	}
	p.opts = opts
	folded, empty := foldEmpty(e.db, sel.Pred)
	x, err := e.prepareFoldedCtx(ctx, sel, folded, p.opts)
	if err != nil {
		return nil, err
	}
	p.tmpl, p.foldKey, p.empty = x, folded.String(), empty
	p.relMuts = templateMuts(x, muts)
	return p, nil
}

// foldEmpty folds pred over the current emptiness of its ranges
// (Lemma 1) and returns the ranges it took as empty.
func foldEmpty(db *relation.DB, pred calculus.Formula) (calculus.Formula, []*calculus.RangeExpr) {
	isEmpty := baseline.Emptiness(db)
	var empty []*calculus.RangeExpr
	folded := normalize.Fold(pred, func(r *calculus.RangeExpr) bool {
		if isEmpty(r) {
			empty = append(empty, r)
			return true
		}
		return false
	})
	return folded, empty
}

// stillEmpty reports whether every range in empty is still empty. It
// reads only relation cardinalities, so it may run under the database
// read lock; an extended range would need a scan of its filter, so it
// counts as possibly filled.
func stillEmpty(db *relation.DB, empty []*calculus.RangeExpr) bool {
	for _, r := range empty {
		rel, ok := db.Relation(r.Rel)
		if r.Extended() || !ok || rel.Len() != 0 {
			return false
		}
	}
	return true
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

// instance revalidates the template against the database's content
// version and returns a private XForm copy for one execution (the
// runtime adaptation mutates it) together with the options to run
// under, the content version the template was validated against — the
// execution re-checks that version under the database read lock
// (snapshot validation) before scanning — and the ranges its fold took
// as empty.
func (p *Plan) instance() (*optimizer.XForm, Options, uint64, []*calculus.RangeExpr, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
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
			return nil, Options{}, 0, nil, err
		}
		muts = p.captureMutCounts()
		p.opts.Estimator = p.eng.db.Estimator()
		statsChanged = true
	}
	if v := p.eng.db.Version(); v != p.version || statsChanged {
		folded, empty := foldEmpty(p.eng.db, p.sel.Pred)
		// Recompile the template when the empty-range fold changed
		// (Lemma 1) — and also when this plan's statistics did: the
		// logical strategies bake estimator-driven decisions (the
		// extraction gate, the elimination order) into the template,
		// which would otherwise stay frozen at compile-time statistics
		// forever.
		if key := folded.String(); key != p.foldKey || statsChanged {
			if muts == nil {
				// The fold changed while every tracked relation held
				// still: a relation the template does not range over
				// (typically one the fold eliminated while it was empty)
				// mutated. Self-derived statistics must refresh here too —
				// relMuts is restamped with current counters below, which
				// would otherwise tag the compile-time estimator as fresh
				// forever. Counters before estimator, as in Compile.
				muts = p.captureMutCounts()
				if p.autoEst {
					if err := p.eng.db.Err(); err != nil {
						return nil, Options{}, 0, nil, err
					}
					p.opts.Estimator = p.eng.db.Estimator()
				}
			}
			x, err := p.eng.prepareFolded(p.sel, folded, p.opts)
			if err != nil {
				return nil, Options{}, 0, nil, err
			}
			p.tmpl, p.foldKey = x, key
			p.relMuts = templateMuts(x, muts)
		}
		p.version, p.empty = v, empty
	}
	return p.tmpl.Clone(), p.opts, p.version, p.empty, nil
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
// compiled template. When a concurrent writer invalidates references
// before construction finishes, or keeps committing while the
// execution aligns its template with the contents (relation.ErrStale),
// Eval re-executes against the new contents — optimistic concurrency
// for the materializing path; only a writer that keeps winning the race
// through every retry surfaces the error.
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
	var lastErr error
	for attempt := 0; attempt <= maxStaleRetries; attempt++ {
		cur, err := p.RowsWith(ctx, override)
		if errors.Is(err, relation.ErrStale) {
			lastErr = err
			continue
		}
		if err != nil {
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
		if err == nil {
			return rows, nil
		}
		if !errors.Is(err, relation.ErrStale) {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// maxSnapshotRetries bounds the optimistic loop that aligns a
// revalidated template with the contents the collection phase will
// read: when a writer commits between revalidation and lock
// acquisition, the execution refolds and retries. After the budget it
// runs the latest template only if every range that template's fold
// removed is still empty: the runtime Lemma 1 adaptation catches ranges
// that emptied, but not one the last commit filled. Otherwise the
// execution fails with the retryable relation.ErrStale.
const maxSnapshotRetries = 3

// beforeSnapshot runs between a template's revalidation and the read
// lock the collection phase takes. It is a variable so a test can
// commit in that window; nothing else sets it.
var beforeSnapshot = func() {}

// Rows executes the collection and combination phases eagerly and
// returns a streaming cursor that runs the construction phase one
// result tuple at a time. The cursor observes ctx: cancellation
// mid-stream surfaces as ctx.Err() from Err after Next returns false.
//
// The collection phase holds the database read lock: one acquisition
// covers every scan and permanent-index probe of the execution
// (version-checked against the template's snapshot), so concurrent
// Exec writers serialize against it. Counters accumulate in a
// per-execution sink that merges into the engine's cumulative sink when
// the phases complete — successful or not.
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

	var x *optimizer.XForm
	var opts Options
	var pp *plan
	for attempt := 0; ; attempt++ {
		var ver uint64
		var err error
		var empty []*calculus.RangeExpr
		x, opts, ver, empty, err = p.instance()
		if err != nil {
			return nil, nil, err
		}
		if override != nil {
			override(&opts)
		}
		beforeSnapshot()
		e.db.RLock()
		if e.db.Version() != ver && (attempt < maxSnapshotRetries || !stillEmpty(e.db, empty)) {
			// A writer committed since revalidation: the fold (and any
			// self-derived statistics) may describe contents the scans
			// will not see. Retry against the new version.
			e.db.RUnlock()
			if attempt < maxSnapshotRetries {
				continue
			}
			return nil, nil, fmt.Errorf("engine: %w: a writer committed during each of %d snapshot attempts, and a range the plan took as empty may have filled", relation.ErrStale, attempt+1)
		}
		opts.maxAdaptations = len(x.Prefix) + len(x.Free) + len(x.Specs) + 2
		pp, err = e.collectWithAdaptation(ctx, x, execSt, opts, ws)
		e.db.RUnlock()
		if err != nil {
			return nil, nil, err
		}
		break
	}
	if len(pp.jobSpans) > 0 {
		pp.annotateScanSpans()
	}

	// An empty free range, or a constant-FALSE matrix, yields the empty
	// relation (nil refs).
	var refs *algebra.RefRel
	if !pp.resultEmpty() {
		pp.combSp = sp.Start("combination")
		var err error
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
