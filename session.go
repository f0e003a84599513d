package pascalr

import (
	"context"
	"sync"
)

// Session is a session-scoped handle on a shared Database: it carries
// its own default execution options (strategy set, planner choice,
// reference-tuple budget) that apply to every call
// made through it, without touching the database-wide defaults other
// sessions resolve against. The network server gives every connection
// one Session; embedded callers can use them to give independent
// workloads independent tuning.
//
// A Session adds no synchronization of its own beyond its option set:
// the underlying Database remains safe for concurrent use, and one
// Session may be used from multiple goroutines. Per-call Options still
// override the session defaults.
type Session struct {
	db *Database

	mu   sync.RWMutex
	opts []Option
}

// NewSession returns a session handle with the database's current
// defaults (an empty session-level option set).
func (d *Database) NewSession() *Session { return &Session{db: d} }

// SetOptions replaces the session's default options. They are applied
// before per-call options on every subsequent call, so a later
// WithMaxRefTuples in a Query call still wins over the session default.
func (s *Session) SetOptions(opts ...Option) {
	s.mu.Lock()
	s.opts = append(s.opts[:0], opts...)
	s.mu.Unlock()
}

// AddOptions appends to the session's default options.
func (s *Session) AddOptions(opts ...Option) {
	s.mu.Lock()
	s.opts = append(s.opts, opts...)
	s.mu.Unlock()
}

// merged returns session defaults followed by per-call options.
func (s *Session) merged(opts []Option) []Option {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.opts) == 0 {
		return opts
	}
	out := make([]Option, 0, len(s.opts)+len(opts))
	out = append(out, s.opts...)
	return append(out, opts...)
}

// Database returns the underlying shared database.
func (s *Session) Database() *Database { return s.db }

// Exec executes a PASCAL/R script; see Database.Exec.
func (s *Session) Exec(src string) error { return s.db.Exec(src) }

// Query evaluates a selection under the session defaults; see
// Database.QueryContext.
func (s *Session) Query(ctx context.Context, src string, opts ...Option) (*Result, error) {
	return s.db.QueryContext(ctx, src, s.merged(opts)...)
}

// QueryRows evaluates a selection into a streaming cursor under the
// session defaults; see Database.QueryRows.
func (s *Session) QueryRows(ctx context.Context, src string, opts ...Option) (*Rows, error) {
	return s.db.QueryRows(ctx, src, s.merged(opts)...)
}

// Prepare compiles a selection under the session defaults; see
// Database.Prepare.
func (s *Session) Prepare(src string, opts ...Option) (*Stmt, error) {
	return s.db.Prepare(src, s.merged(opts)...)
}

// PrepareContext is Prepare with a context; a trace span carried by the
// context records the parse, check, and compile phases.
func (s *Session) PrepareContext(ctx context.Context, src string, opts ...Option) (*Stmt, error) {
	return s.db.PrepareContext(ctx, src, s.merged(opts)...)
}

// ExplainAnalyze executes a selection under the session defaults and
// reports estimated versus actual cardinalities; see
// Database.ExplainAnalyze.
func (s *Session) ExplainAnalyze(ctx context.Context, src string, opts ...Option) (string, error) {
	return s.db.ExplainAnalyze(ctx, src, s.merged(opts)...)
}

// Explain renders the plan under the session defaults; see
// Database.Explain.
func (s *Session) Explain(src string, opts ...Option) (string, error) {
	return s.db.Explain(src, s.merged(opts)...)
}
