package pascalr

import (
	"context"
	"fmt"

	"pascalr/internal/calculus"
	"pascalr/internal/engine"
	"pascalr/internal/obs"
	"pascalr/internal/parser"
)

// Stmt is a prepared selection: the query is parsed, type-checked,
// optimized, and planned once at Prepare, and each Query or Rows call
// re-executes the compiled plan against the database's current
// contents. Mutations between executions are observed — the plan is
// revalidated against the database's content version, refreshing
// statistics and recompiling only when the Lemma 1 empty-range
// adaptation demands it — so a Stmt trades no correctness for the
// amortized compilation.
//
// A Stmt is safe for concurrent use: executions revalidate and run the
// shared compiled plan under its own synchronization, each counting
// into a private sink.
type Stmt struct {
	d    *Database
	src  string
	c    config
	plan *engine.Plan
}

// Prepare compiles a selection expression for repeated execution.
// Compile-time options — WithStrategies and WithCostBased — are fixed
// here; WithBaseline cannot be prepared (the tuple-substitution oracle
// has no plan to cache).
func (d *Database) Prepare(src string, opts ...Option) (*Stmt, error) {
	return d.PrepareContext(context.Background(), src, opts...)
}

// PrepareContext is Prepare with a context: when the context carries a
// trace span (server sessions and the -trace CLI flag arrange this),
// the parse, check, and compile phases record child spans.
func (d *Database) PrepareContext(ctx context.Context, src string, opts ...Option) (*Stmt, error) {
	return d.prepareShared(ctx, src, d.newConfig(opts))
}

func (d *Database) prepare(ctx context.Context, src string, c config) (*Stmt, error) {
	if c.useBaseline {
		return nil, fmt.Errorf("pascalr: cannot prepare a baseline evaluation")
	}
	sp := obs.SpanFrom(ctx)
	psp := sp.Start("parse")
	sel, err := parser.ParseSelection(src)
	psp.End()
	if err != nil {
		return nil, err
	}
	csp := sp.Start("check")
	checked, info, err := calculus.Check(sel, d.db.Catalog())
	csp.End()
	if err != nil {
		return nil, err
	}
	// No explicit estimator: the engine derives statistics from the
	// database's live snapshots and refreshes them (recompiling the
	// template's cost-gated decisions) whenever they change.
	ksp := sp.Start("compile")
	plan, err := d.eng.CompileCtx(obs.With(ctx, ksp), checked, info, engine.Options{
		Strategies:   engine.Strategy(c.strategies),
		MaxRefTuples: c.maxRefTuples,
		CostBased:    c.costBased,
	})
	ksp.End()
	if err != nil {
		return nil, err
	}
	return &Stmt{d: d, src: src, c: c, plan: plan}, nil
}

// Src returns the selection source the statement was prepared from.
func (s *Stmt) Src() string { return s.src }

// execConfig merges per-execution options into the prepared
// configuration. Only execution-time options are accepted; the
// compile-time ones are baked into the plan, so changing them requires
// a new Prepare.
func (s *Stmt) execConfig(opts []Option) (config, error) {
	c := s.c
	for _, o := range opts {
		o(&c)
	}
	if c.strategies != s.c.strategies || c.costBased != s.c.costBased || c.useBaseline {
		return config{}, fmt.Errorf("pascalr: WithStrategies, WithCostBased, and WithBaseline are fixed at Prepare; prepare a new statement instead")
	}
	return c, nil
}

// override returns the per-execution option override for one call: the
// reference-tuple budget. Statistics need no
// override — the plan derives them from the database's live snapshots
// and refreshes them itself. The override applies to a private copy of
// the plan's options inside the execution, so concurrent calls with
// different execution-time options never contaminate each other.
func (s *Stmt) override(c config) func(*engine.Options) {
	return func(o *engine.Options) {
		o.MaxRefTuples = c.maxRefTuples
	}
}

// Query re-executes the compiled plan and returns the materialized
// result. The context cancels the evaluation between scanned tuples and
// combination-phase operations; the error is then ctx.Err().
func (s *Stmt) Query(ctx context.Context, opts ...Option) (*Result, error) {
	c, err := s.execConfig(opts)
	if err != nil {
		return nil, err
	}
	rows, err := s.plan.EvalWith(ctx, s.override(c))
	if err != nil {
		return nil, classifyErr(err)
	}
	return newResult(s.plan.Schema(), rows), nil
}

// Rows re-executes the compiled plan and returns a streaming cursor:
// the collection and combination phases run eagerly, and the
// construction phase is driven one tuple at a time by Next. Unlike the
// one-shot QueryRows, a prepared cursor performs no stale-read retry —
// a concurrent writer invalidating the stream surfaces ErrStaleRead
// from Rows.Err, and the caller decides whether to re-execute.
func (s *Stmt) Rows(ctx context.Context, opts ...Option) (*Rows, error) {
	c, err := s.execConfig(opts)
	if err != nil {
		return nil, err
	}
	cur, err := s.plan.RowsWith(ctx, s.override(c))
	if err != nil {
		return nil, classifyErr(err)
	}
	return newRows(cur), nil
}
