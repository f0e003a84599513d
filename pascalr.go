// Package pascalr is a Go reproduction of the PASCAL/R relational
// database management system's query processor, as described in
// Jarke & Schmidt, "Query Processing Strategies in the PASCAL/R
// Relational Database Management System", Proc. ACM SIGMOD 1982.
//
// A Database holds PASCAL/R relation variables declared with the
// paper's TYPE/VAR syntax and evaluates selections — first-order
// predicate calculus queries with free (EACH), existential (SOME), and
// universal (ALL) range-coupled variables — using the paper's
// phase-structured algorithm (collection, combination, construction)
// under any combination of its four optimization strategies:
//
//	S1  parallel evaluation of subexpressions (one scan per relation)
//	S2  one-step evaluation of nested subexpressions
//	S3  extended range expressions
//	S4  quantifier evaluation in the collection phase (value lists)
//
// Quickstart:
//
//	db := pascalr.New()
//	err := db.Exec(`
//	    TYPE statustype = (student, technician, assistant, professor);
//	    VAR employees : RELATION <enr> OF
//	        RECORD enr : 1..99; ename : PACKED ARRAY [1..10] OF char;
//	               estatus : statustype END;
//	    employees :+ [<1, 'Ada', professor>, <2, 'Bob', student>];
//	`)
//	res, err := db.Query(`[<e.ename> OF EACH e IN employees:
//	                        e.estatus = professor]`)
//	fmt.Println(res)
//
// Queries embedded in a host program are typically executed many times,
// so the API splits compile time from run time: Prepare parses,
// type-checks, optimizes, and plans once, and the returned Stmt
// re-executes the compiled plan. Results can be streamed through a
// cursor instead of materialized, with context cancellation observed
// throughout evaluation:
//
//	stmt, err := db.Prepare(`[<e.ename> OF EACH e IN employees:
//	                           e.estatus = professor]`)
//	rows, err := stmt.Rows(ctx)
//	defer rows.Close()
//	for rows.Next() {
//	    var name string
//	    if err := rows.Scan(&name); err != nil { ... }
//	    fmt.Println(name)
//	}
//	err = rows.Err() // ctx.Err() after a cancellation
//
// One-shot Query calls share the machinery through an LRU plan cache
// keyed by source and compile options, and every cached plan is
// revalidated against the database's content version, so mutations are
// always observed.
//
// A Database is safe for concurrent use: queries and prepared
// statements may run from many goroutines while Exec mutates contents —
// each execution reads a version-validated snapshot under the storage
// layer's reader lock. Each execution itself runs the paper's serial
// schedule on the calling goroutine.
package pascalr

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"pascalr/internal/baseline"
	"pascalr/internal/calculus"
	"pascalr/internal/engine"
	"pascalr/internal/obs"
	"pascalr/internal/parser"
	"pascalr/internal/relation"
	"pascalr/internal/schema"
	"pascalr/internal/stats"
	"pascalr/internal/storage"
	"pascalr/internal/value"
)

// Strategy selects the paper's optimization strategies as a bit set.
type Strategy uint8

// The optimization strategies of section 4 of the paper.
const (
	S1 Strategy = Strategy(engine.S1) // one scan per relation
	S2 Strategy = Strategy(engine.S2) // monadic terms restrict indirect joins
	S3 Strategy = Strategy(engine.S3) // extended range expressions
	S4 Strategy = Strategy(engine.S4) // collection-phase quantifier evaluation

	// SCNF is the conjunctive-normal-form range extension the paper
	// proposes as future work in section 4.3: ranges narrow by the OR of
	// the per-conjunction monadic restrictions.
	SCNF Strategy = Strategy(engine.SCNF)

	// NoStrategies is the unoptimized standard algorithm (section 3.3).
	NoStrategies Strategy = 0
	// AllStrategies enables every optimization.
	AllStrategies = S1 | S2 | S3 | S4
)

// String renders the strategy set, e.g. "S1+S3" or "S0".
func (s Strategy) String() string { return engine.Strategy(s).String() }

// ParseStrategy parses "s0", "all", or a combination like "s1+s3"
// (case-insensitive, also accepts comma separators).
func ParseStrategy(s string) (Strategy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "s0", "none", "0", "":
		return NoStrategies, nil
	case "all":
		return AllStrategies, nil
	}
	var out Strategy
	for _, part := range strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return r == '+' || r == ','
	}) {
		switch strings.TrimSpace(part) {
		case "s1":
			out |= S1
		case "s2":
			out |= S2
		case "s3":
			out |= S3
		case "s4":
			out |= S4
		case "scnf", "cnf":
			out |= SCNF
		default:
			return 0, fmt.Errorf("pascalr: unknown strategy %q", part)
		}
	}
	return out, nil
}

// Database is a PASCAL/R database instance: a catalog of types and
// relation variables plus their contents.
//
// A Database is safe for concurrent use: Exec (DDL and content
// mutations) serializes against query compilation through a
// database-level lock and against running executions through the
// storage layer's content lock, while Query, QueryRows, and prepared
// statements may run from many goroutines at once — each execution
// reads a version-validated snapshot and counts into a private sink
// merged on completion. The plan cache and the cost-statistics cache
// are individually synchronized.
type Database struct {
	db  *relation.DB
	eng *engine.Engine

	// mu guards the catalog-affecting surface: Exec (declarations
	// mutate the catalog the compile path reads) takes it exclusively;
	// parse/check/compile paths take it shared. Execution of compiled
	// plans runs outside it — the storage content lock covers that.
	mu         sync.RWMutex
	strategies Strategy

	// plans is the LRU of prepared statements behind the one-shot Query
	// path.
	plans *planCache
}

// New returns an empty database with all optimization strategies
// enabled by default.
func New() *Database {
	db := relation.NewDB()
	return &Database{
		db:         db,
		eng:        engine.New(db, &stats.Counters{}),
		strategies: AllStrategies,
		plans:      newPlanCache(planCacheSize),
	}
}

// Open creates a database and executes the given PASCAL/R script.
func Open(script string) (*Database, error) {
	d := New()
	if err := d.Exec(script); err != nil {
		return nil, err
	}
	return d, nil
}

// DirOption configures a durable database opened with OpenDir.
type DirOption func(*storage.Options)

// WithFsyncNever skips the fsync after each write-ahead-log append.
// Mutations remain atomic and ordered, but a machine crash (not a mere
// process crash) may lose the most recent ones. Useful for bulk loads
// and tests.
func WithFsyncNever() DirOption {
	return func(o *storage.Options) { o.Fsync = storage.SyncNever }
}

// WithMemtableEntries sets how many occupied slots a relation buffers
// in memory before flushing them to an immutable SSTable.
func WithMemtableEntries(n int) DirOption {
	return func(o *storage.Options) { o.MemtableEntries = n }
}

// WithCheckpointWALBytes sets the write-ahead-log size that triggers a
// background checkpoint (bounding recovery replay). Negative disables
// automatic checkpoints; Checkpoint and Close still take them.
func WithCheckpointWALBytes(n int64) DirOption {
	return func(o *storage.Options) { o.CheckpointWALBytes = n }
}

// WithBlockCacheBytes sets the byte budget of the shared SSTable block
// cache fronting disk point reads (default 8 MiB). Negative disables
// the cache; reads then always hit the files.
func WithBlockCacheBytes(n int64) DirOption {
	return func(o *storage.Options) { o.BlockCacheBytes = n }
}

// OpenDir opens (creating if needed) a durable database rooted at the
// given directory and recovers it to its last durable state: the
// checkpoint manifest restores schemas, disk-resident relation
// contents, permanent indexes, and cost statistics, and the
// write-ahead log replays every mutation recorded since. All
// optimization strategies are enabled by default. Close flushes and
// checkpoints; killing the process instead merely loses mutations
// after the last durable log record, never a prefix or a partial one.
// If a log append or fsync fails, the database fails stop: the
// statement that hit it and every later statement, query and read
// return that error, and Close reports it. Reopen the directory to
// continue from the last durable state.
func OpenDir(path string, opts ...DirOption) (*Database, error) {
	var o storage.Options
	for _, f := range opts {
		f(&o)
	}
	db, err := relation.OpenDB(path, o)
	if err != nil {
		return nil, err
	}
	return &Database{
		db:         db,
		eng:        engine.New(db, &stats.Counters{}),
		strategies: AllStrategies,
		plans:      newPlanCache(planCacheSize),
	}, nil
}

// Checkpoint persists the complete current state of a durable database
// and truncates its write-ahead log, bounding the replay work the next
// OpenDir performs. On an in-memory database it is a no-op.
func (d *Database) Checkpoint() error { return d.db.Checkpoint() }

// SetStrategies changes the default strategy set used by Exec and Query.
func (d *Database) SetStrategies(s Strategy) {
	d.mu.Lock()
	d.strategies = s
	d.mu.Unlock()
}

// config carries per-call options.
type config struct {
	strategies   Strategy
	useBaseline  bool
	maxRefTuples int64
	costBased    bool
	noCache      bool
}

// newConfig resolves options against the database defaults.
func (d *Database) newConfig(opts []Option) config {
	d.mu.RLock()
	c := config{strategies: d.strategies}
	d.mu.RUnlock()
	for _, o := range opts {
		o(&c)
	}
	return c
}

// cacheKey identifies a compiled plan: the source text plus the options
// that influence compilation. Execution-time options (the
// reference-tuple budget) deliberately stay out.
func cacheKey(src string, c config) string {
	return fmt.Sprintf("%s|%s|cost=%v", src, c.strategies, c.costBased)
}

// Option customizes a single Query or Explain call.
type Option func(*config)

// WithStrategies overrides the database's default strategy set.
func WithStrategies(s Strategy) Option {
	return func(c *config) { c.strategies = s }
}

// WithBaseline evaluates by direct tuple substitution (nested loops over
// the abstract syntax) instead of the phase-structured engine. Useful
// for comparisons; the experiments use it as the paper's "evaluate
// queries directly as given by the user" reference point.
func WithBaseline() Option {
	return func(c *config) { c.useBaseline = true }
}

// WithMaxRefTuples bounds the reference tuples the combination phase may
// materialize; exceeding it aborts the query with an error.
func WithMaxRefTuples(n int64) Option {
	return func(c *config) { c.maxRefTuples = n }
}

// WithCostBased plans the evaluation from cardinality estimates: scan
// ordering, probe/index side selection, combination-phase join ordering,
// and the optimizer's extraction decisions all consult per-relation
// statistics collected just before planning, instead of the paper's
// static priorities.
func WithCostBased() Option {
	return func(c *config) { c.costBased = true }
}

// WithoutPlanCache makes a one-shot Query or QueryRows call bypass the
// LRU plan cache: the query is compiled from scratch and the plan is
// discarded afterwards. Useful for queries known to run once, and for
// measuring the cache's effect.
func WithoutPlanCache() Option {
	return func(c *config) { c.noCache = true }
}

// Exec parses and executes a PASCAL/R script: TYPE and VAR sections,
// assignments (:=), inserts (:+), and deletes (:-). Statements that
// mutate relation contents bump the database's content version, which
// transparently invalidates cached statistics and compiled plans;
// scripts containing only TYPE/VAR declarations leave both intact.
func (d *Database) Exec(src string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	prog, err := parser.Parse(src, d.db.Catalog())
	if err != nil {
		return err
	}
	for _, item := range prog.Items {
		switch it := item.(type) {
		case parser.TypeDecl:
			if err := d.db.DefineType(it.Type); err != nil {
				return err
			}
		case parser.RelDecl:
			if _, err := d.db.Create(it.Schema); err != nil {
				return err
			}
		case parser.Stmt:
			if err := d.execStmt(it); err != nil {
				return fmt.Errorf("line %d: %w", it.Line, err)
			}
		}
	}
	return nil
}

// MustExec is Exec that panics on error; for tests and examples.
func (d *Database) MustExec(src string) {
	if err := d.Exec(src); err != nil {
		panic(err)
	}
}

func (d *Database) execStmt(st parser.Stmt) error {
	switch st.Op {
	case parser.OpAssign:
		sch, rows, err := d.evalSelection(context.Background(), st.Sel, config{strategies: d.strategies})
		if err != nil {
			return err
		}
		return d.assign(st.Target, sch, rows)
	case parser.OpInsert:
		rel, ok := d.db.Relation(st.Target)
		if !ok {
			return fmt.Errorf("pascalr: unknown relation %s", st.Target)
		}
		if st.Sel != nil {
			_, rows, err := d.evalSelection(context.Background(), st.Sel, config{strategies: d.strategies})
			if err != nil {
				return err
			}
			for _, tup := range rows {
				if _, err := rel.Insert(tup); err != nil {
					return err
				}
			}
			return nil
		}
		for _, lit := range st.Tuples {
			tup, err := parser.ResolveTuple(lit, rel.Schema())
			if err != nil {
				return err
			}
			if _, err := rel.Insert(tup); err != nil {
				return err
			}
		}
		return nil
	case parser.OpDelete:
		rel, ok := d.db.Relation(st.Target)
		if !ok {
			return fmt.Errorf("pascalr: unknown relation %s", st.Target)
		}
		for _, lit := range st.Tuples {
			key, err := parser.KeyTuple(lit, rel.Schema())
			if err != nil {
				return err
			}
			// An absent key is a no-op; a failed probe or log is not.
			if _, err := rel.Delete(key); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("pascalr: unknown statement operator")
	}
}

// assign implements `target := selection-result` for a result's
// schema and rows: the target relation is created on first assignment
// and replaced on subsequent ones.
func (d *Database) assign(target string, res *schema.RelSchema, rows [][]value.Value) error {
	rel, ok := d.db.Relation(target)
	if !ok {
		cols := append([]schema.Column(nil), res.Cols...)
		sch, err := schema.NewRelSchema(target, cols, res.Key)
		if err != nil {
			return err
		}
		rel, err = d.db.Create(sch)
		if err != nil {
			return err
		}
	} else {
		if len(rel.Schema().Cols) != len(res.Cols) {
			return fmt.Errorf("pascalr: cannot assign %d-component result to relation %s with %d components",
				len(res.Cols), target, len(rel.Schema().Cols))
		}
		for i, c := range rel.Schema().Cols {
			if !c.Type.Comparable(res.Cols[i].Type) {
				return fmt.Errorf("pascalr: component %s of %s has incompatible type", c.Name, target)
			}
		}
	}
	return rel.Assign(rows)
}

// evalSelection checks and evaluates a parsed selection, returning the
// result schema and the distinct result rows. Callers hold the database
// lock (shared suffices for the engine path; Exec holds it exclusively)
// so checking reads a stable catalog.
func (d *Database) evalSelection(ctx context.Context, sel *calculus.Selection, c config) (*schema.RelSchema, [][]value.Value, error) {
	checked, info, err := calculus.Check(sel, d.db.Catalog())
	if err != nil {
		return nil, nil, err
	}
	var rows [][]value.Value
	if c.useBaseline {
		// The oracle counts into a private sink merged on completion,
		// like engine executions, so concurrent baseline calls do not
		// race on the shared counters.
		local := &stats.Counters{}
		rows, err = baseline.EvalStats(checked, info, d.db, local)
		d.eng.Stats(func(st *stats.Counters) { st.Merge(local) })
	} else {
		rows, err = d.eng.Eval(ctx, checked, info, engine.Options{
			Strategies:   engine.Strategy(c.strategies),
			MaxRefTuples: c.maxRefTuples,
			CostBased:    c.costBased,
		})
	}
	return info.Result, rows, err
}

// preparedStmt returns the prepared statement the one-shot path should
// execute: a cache hit, or a freshly compiled (and, unless noCache,
// cached) statement. On a concurrent miss both goroutines compile and
// the later put wins — wasted work, never a wrong plan.
func (d *Database) preparedStmt(ctx context.Context, src string, c config) (*Stmt, error) {
	if c.noCache {
		mPlanCacheMisses.Inc()
		obs.SpanFrom(ctx).SetAttr("plan_cache", "bypass")
		return d.prepareShared(ctx, src, c)
	}
	key := cacheKey(src, c)
	if s, ok := d.plans.get(key); ok {
		mPlanCacheHits.Inc()
		obs.SpanFrom(ctx).SetAttr("plan_cache", "hit")
		return s, nil
	}
	mPlanCacheMisses.Inc()
	obs.SpanFrom(ctx).SetAttr("plan_cache", "miss")
	s, err := d.prepareShared(ctx, src, c)
	if err != nil {
		return nil, err
	}
	d.plans.put(key, s)
	return s, nil
}

// prepareShared compiles under the shared database lock, serializing
// against Exec's catalog mutations.
func (d *Database) prepareShared(ctx context.Context, src string, c config) (*Stmt, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.prepare(ctx, src, c)
}

// Query evaluates a selection expression and returns its result. Behind
// the scenes the compiled plan is kept in an LRU cache keyed by source
// and compile options, so repeated ad-hoc queries pay parsing, checking,
// and planning only once.
func (d *Database) Query(src string, opts ...Option) (*Result, error) {
	return d.QueryContext(context.Background(), src, opts...)
}

// QueryContext is Query with a context: cancellation and deadlines are
// observed between scanned tuples and combination-phase operations, and
// surface as ctx.Err(). The baseline evaluator (WithBaseline) does not
// observe the context.
func (d *Database) QueryContext(ctx context.Context, src string, opts ...Option) (*Result, error) {
	c := d.newConfig(opts)
	if c.useBaseline {
		sel, err := parser.ParseSelection(src)
		if err != nil {
			return nil, err
		}
		d.mu.RLock()
		sch, rows, err := d.evalSelection(ctx, sel, c)
		d.mu.RUnlock()
		if err != nil {
			return nil, err
		}
		return newResult(sch, rows), nil
	}
	s, err := d.preparedStmt(ctx, src, c)
	if err != nil {
		return nil, err
	}
	rows, err := s.plan.EvalWith(ctx, s.override(c))
	if err != nil {
		return nil, classifyErr(err)
	}
	return newResult(s.plan.Schema(), rows), nil
}

// QueryRows evaluates a selection expression and returns a streaming
// cursor over its result; see Rows. It shares the plan cache with
// Query. The baseline evaluator cannot stream, so WithBaseline is
// rejected here.
//
// A concurrent writer invalidating the stream mid-iteration is
// absorbed once: the query re-executes and the cursor resumes over the
// new contents without repeating yielded tuples. A writer winning the
// race a second time surfaces ErrStaleRead from Rows.Err.
func (d *Database) QueryRows(ctx context.Context, src string, opts ...Option) (*Rows, error) {
	c := d.newConfig(opts)
	if c.useBaseline {
		return nil, fmt.Errorf("pascalr: the baseline evaluator does not support cursors")
	}
	s, err := d.preparedStmt(ctx, src, c)
	if err != nil {
		return nil, err
	}
	cur, err := s.plan.RowsWith(ctx, s.override(c))
	if err != nil {
		return nil, classifyErr(err)
	}
	rows := newRows(cur)
	rows.enableRetry(func() (*engine.Cursor, error) {
		return s.plan.RowsWith(ctx, s.override(c))
	})
	return rows, nil
}

// MustQuery is Query that panics on error; for tests and examples.
func (d *Database) MustQuery(src string, opts ...Option) *Result {
	r, err := d.Query(src, opts...)
	if err != nil {
		panic(err)
	}
	return r
}

// Explain renders the logical transformations and the physical plan the
// engine would use for a selection, without running its combination
// phase.
func (d *Database) Explain(src string, opts ...Option) (string, error) {
	c := d.newConfig(opts)
	sel, err := parser.ParseSelection(src)
	if err != nil {
		return "", err
	}
	d.mu.RLock()
	checked, _, err := calculus.Check(sel, d.db.Catalog())
	d.mu.RUnlock()
	if err != nil {
		return "", err
	}
	eng := engine.New(d.db, nil)
	return eng.Explain(checked, engine.Options{
		Strategies: engine.Strategy(c.strategies),
		CostBased:  c.costBased,
	})
}

// ExplainAnalyze executes a selection once and reports estimated
// versus actual cardinalities per scan and per combination-phase join —
// the observable record of estimate quality. The query runs through the
// same plan cache as Query; counters accumulate as for any execution.
func (d *Database) ExplainAnalyze(ctx context.Context, src string, opts ...Option) (string, error) {
	c := d.newConfig(opts)
	if c.useBaseline {
		return "", fmt.Errorf("pascalr: the baseline evaluator has no plan to explain")
	}
	s, err := d.preparedStmt(ctx, src, c)
	if err != nil {
		return "", err
	}
	return s.plan.ExplainWith(ctx, s.override(c))
}

// Close quiesces background maintenance for shutdown: it waits for
// in-flight drift-triggered histogram rebuilds, checkpoints, and
// compactions to finish and rejects any scheduled afterwards, so no
// goroutine outlives Close. A durable database additionally takes a
// final checkpoint and closes its log and table files, and is not
// usable afterwards; an in-memory database remains usable (its
// degraded statistics simply stop re-bucketing). Close is idempotent.
// Server shutdown drains sessions first, then calls Close.
func (d *Database) Close() error { return d.db.Close() }

// CreateIndex declares a permanent index on one component of a
// relation. The engine's collection phase then probes it instead of
// building a transient index, and a scan that existed only to build
// that index disappears — the paper's "the first step can be omitted,
// if permanent indexes exist" (section 3.2).
func (d *Database) CreateIndex(rel, col string) error {
	r, ok := d.db.Relation(rel)
	if !ok {
		return fmt.Errorf("pascalr: unknown relation %s", rel)
	}
	_, err := r.CreateIndex(col)
	return err
}

// Relations returns the declared relation names in declaration order.
func (d *Database) Relations() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.db.Catalog().Relations()
}

// RelationLen returns the cardinality of a relation. A database whose
// write-ahead log failed refuses it with that error, as it refuses
// every read.
func (d *Database) RelationLen(name string) (int, error) {
	rel, ok := d.db.Relation(name)
	if !ok {
		return 0, fmt.Errorf("pascalr: unknown relation %s", name)
	}
	if err := d.db.Err(); err != nil {
		return 0, err
	}
	return rel.Len(), nil
}

// Dump returns the contents of a relation as a Result, in insertion
// order.
func (d *Database) Dump(name string) (*Result, error) {
	rel, ok := d.db.Relation(name)
	if !ok {
		return nil, fmt.Errorf("pascalr: unknown relation %s", name)
	}
	// A failed scan (an unreadable SSTable, a fail-stopped database) is
	// Dump's error.
	rows := make([][]value.Value, 0, rel.Len())
	if err := rel.Scan(nil, func(_ value.Value, tuple []value.Value) bool {
		rows = append(rows, slices.Clone(tuple))
		return true
	}); err != nil {
		return nil, err
	}
	return newResult(rel.Schema(), rows), nil
}

// Stats reports the cost counters accumulated since the last ResetStats:
// base-relation scans, tuples read, index probes, comparisons, and
// reference tuples materialized.
type Stats struct {
	TotalScans     int
	ScansOf        map[string]int
	TuplesRead     int64
	IndexProbes    int64
	Comparisons    int64
	RefTuples      int64
	PeakRefTuples  int64
	HashJoins      int64
	CartesianJoins int64
	PlanOrder      []string // scan order of the most recent evaluation
}

// Stats returns a snapshot of the accumulated counters, taken under
// the counter lock so completing executions cannot tear it.
func (d *Database) Stats() Stats {
	var out Stats
	d.eng.Stats(func(st *stats.Counters) {
		scans := make(map[string]int, len(st.BaseScans))
		for k, v := range st.BaseScans {
			scans[k] = v
		}
		out = Stats{
			TotalScans:     st.TotalScans(),
			ScansOf:        scans,
			TuplesRead:     st.TuplesRead,
			IndexProbes:    st.IndexProbes,
			Comparisons:    st.Comparisons,
			RefTuples:      st.RefTuples,
			PeakRefTuples:  st.PeakRefTuples,
			HashJoins:      st.HashJoins,
			CartesianJoins: st.CartesianJoins,
			PlanOrder:      append([]string(nil), st.PlanOrder...),
		}
	})
	return out
}

// ResetStats clears the accumulated counters.
func (d *Database) ResetStats() {
	d.eng.Stats(func(st *stats.Counters) { st.Reset() })
}

// StatsFingerprint renders the accumulated counters as the engine's
// deterministic fingerprint string: two databases that executed the
// same work since their last ResetStats produce byte-identical
// fingerprints regardless of interleaving. The differential test
// harness compares it across in-process and network executions; it is
// also a cheap change detector for monitoring.
func (d *Database) StatsFingerprint() string {
	var fp string
	d.eng.Stats(func(st *stats.Counters) { fp = st.Fingerprint() })
	return fp
}

// TableStat is one relation's live-statistics headline, as exported by
// TableStats for monitoring surfaces (the server's /metrics endpoint).
type TableStat struct {
	Name    string       `json:"name"`
	Rows    int          `json:"rows"`
	Columns []ColumnStat `json:"columns"`
}

// ColumnStat summarizes one column's live statistics: the distinct
// count, the statistics representation currently maintained ("exact",
// "buckets", or "bounds"), and the observed value bounds.
type ColumnStat struct {
	Name     string `json:"name"`
	Distinct int    `json:"distinct"`
	Mode     string `json:"mode"`
	Lo       string `json:"lo,omitempty"`
	Hi       string `json:"hi,omitempty"`
}

// TableStats snapshots the live, incrementally maintained per-relation
// statistics (cardinalities, distinct counts, histogram modes) in
// declaration order. The snapshot is consistent per relation and
// requires no analyze pass. A database whose write-ahead log failed
// refuses it with that error, as it refuses every read.
func (d *Database) TableStats() ([]TableStat, error) {
	rels := d.db.Relations()
	out := make([]TableStat, 0, len(rels))
	for _, r := range rels {
		live, err := r.LiveStats()
		if err != nil {
			return nil, err
		}
		sum := live.Summary()
		ts := TableStat{Name: sum.Name, Rows: sum.Rows, Columns: make([]ColumnStat, 0, len(sum.Columns))}
		for _, c := range sum.Columns {
			ts.Columns = append(ts.Columns, ColumnStat{Name: c.Name, Distinct: c.Distinct, Mode: c.Mode, Lo: c.Lo, Hi: c.Hi})
		}
		out = append(out, ts)
	}
	return out, nil
}

// Result is a query result: a set of tuples with named components.
type Result struct {
	cols []string
	typs []*schema.Type
	rows [][]value.Value
}

// newResult makes a Result of rows under sch; the Result takes the
// rows over.
func newResult(sch *schema.RelSchema, rows [][]value.Value) *Result {
	r := &Result{rows: rows}
	for _, c := range sch.Cols {
		r.cols = append(r.cols, c.Name)
		r.typs = append(r.typs, c.Type)
	}
	return r
}

// Columns returns the component names.
func (r *Result) Columns() []string { return append([]string(nil), r.cols...) }

// Len returns the number of tuples.
func (r *Result) Len() int { return len(r.rows) }

// Rows converts the tuples to native Go values: int64 for integers,
// string for character arrays and enumeration labels, bool for booleans.
func (r *Result) Rows() [][]any {
	out := make([][]any, len(r.rows))
	for i, row := range r.rows {
		conv := make([]any, len(row))
		for j, v := range row {
			conv[j] = convertValue(v, r.typs[j])
		}
		out[i] = conv
	}
	return out
}

// convertValue maps a PASCAL/R value to its native Go representation:
// int64 for integers, string for character arrays and enumeration
// labels, bool for booleans.
func convertValue(v value.Value, t *schema.Type) any {
	switch v.Kind() {
	case value.KindInt:
		return v.AsInt()
	case value.KindString:
		return v.AsString()
	case value.KindBool:
		return v.AsBool()
	case value.KindEnum:
		return t.Format(v)
	default:
		return v.String()
	}
}

// String renders the result as an aligned text table.
func (r *Result) String() string {
	rows := r.Rows()
	widths := make([]int, len(r.cols))
	for i, c := range r.cols {
		widths[i] = len(c)
	}
	cells := make([][]string, len(rows))
	for i, row := range rows {
		cells[i] = make([]string, len(row))
		for j, v := range row {
			s := fmt.Sprintf("%v", v)
			cells[i][j] = s
			if len(s) > widths[j] {
				widths[j] = len(s)
			}
		}
	}
	var b strings.Builder
	for j, c := range r.cols {
		fmt.Fprintf(&b, "%-*s  ", widths[j], c)
	}
	b.WriteString("\n")
	for j := range r.cols {
		b.WriteString(strings.Repeat("-", widths[j]) + "  ")
	}
	b.WriteString("\n")
	for _, row := range cells {
		for j, s := range row {
			fmt.Fprintf(&b, "%-*s  ", widths[j], s)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "(%d tuples)\n", len(rows))
	return b.String()
}
