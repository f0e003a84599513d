package engine

import (
	"context"
	"fmt"
	"slices"

	"pascalr/internal/algebra"
	"pascalr/internal/calculus"
	"pascalr/internal/relation"
	"pascalr/internal/schema"
	"pascalr/internal/value"
)

// Cursor streams the construction phase: the combination result (a
// reference relation over the free variables) is materialized, but the
// dereference-and-project step runs lazily, one chunk of result tuples
// at a time. Duplicate projections are suppressed by the cursor's own
// exact set (rowSet), preserving the set semantics of the materializing
// path — the tuples yielded are exactly the tuples Eval returns, in the
// same order.
//
// A chunk is constructed under one acquisition of the database read
// lock. Its rows are yielded only while the database version is the one
// they were built at: after a concurrent mutation the unyielded rest of
// the chunk is dropped and rebuilt, so a row whose element was deleted
// since the combination phase still surfaces as a stale reference on
// the Next that would have yielded it.
type Cursor struct {
	ctx       context.Context
	db        *relation.DB
	sch       *schema.RelSchema
	refs      *algebra.RefRel      // combination-phase reference tuples
	cols      []int                // projection: combination column per output component
	fieldCols []int                // projection: relation component per output component
	vars      []int                // combination columns the projection reads, once each
	rels      []*relation.Relation // relation of each combination column the projection reads
	elems     [][]value.Value      // dereferenced element per combination column, reused per row
	i         int                  // next reference tuple to construct
	buf       []value.Value        // scratch projection buffer, reused per row
	set       *rowSet              // distinct constructed rows, in yield order
	ws        *workspace           // lender of refs and set; pooled again at Close

	yielded int     // rows of set handed out by Next
	ver     uint64  // database version the unyielded rows were built at
	src     []int32 // reference tuple of each row of the current chunk
	base    int     // first row of the current chunk
	resume  int     // reference tuple after the last yielded row's
	pending error   // construction error behind the unyielded rows

	cur    []value.Value
	err    error
	closed bool
}

// constructChunk is the number of distinct rows constructed under one
// acquisition of the database read lock.
const constructChunk = 256

// newCursor prepares the construction projection. A nil refs means the
// combination phase proved the result empty. The cursor takes ws over:
// refs must be lent by it, the construction set is, and Close returns
// both and pools ws.
func newCursor(ctx context.Context, db *relation.DB, sel *calculus.Selection, sch *schema.RelSchema, refs *algebra.RefRel, ws *workspace) (*Cursor, error) {
	c := &Cursor{ctx: ctx, db: db, sch: sch, ws: ws}
	c.set = ws.rowSet(len(sch.Cols))
	if refs == nil || refs.Len() == 0 {
		return c, nil
	}
	varIdx := map[string]int{}
	for i, v := range refs.Vars() {
		varIdx[v] = i
	}
	c.cols = make([]int, len(sel.Proj))
	c.fieldCols = make([]int, len(sel.Proj))
	c.rels = make([]*relation.Relation, len(refs.Vars()))
	for i, pr := range sel.Proj {
		vi, ok := varIdx[pr.Var]
		if !ok {
			return nil, fmt.Errorf("engine: projected variable %s missing from combination result", pr.Var)
		}
		c.cols[i] = vi
		if !slices.Contains(c.vars, vi) {
			c.vars = append(c.vars, vi)
		}
		rel, ok := db.Relation(rangeRelOf(sel, pr.Var))
		if !ok {
			return nil, fmt.Errorf("engine: unknown relation for variable %s", pr.Var)
		}
		ci, ok := rel.Schema().ColIndex(pr.Col)
		if !ok {
			return nil, fmt.Errorf("engine: relation %s has no component %s", rel.Name(), pr.Col)
		}
		c.fieldCols[i] = ci
		c.rels[vi] = rel
	}
	c.refs = refs
	return c, nil
}

func rangeRelOf(sel *calculus.Selection, v string) string {
	for _, d := range sel.Free {
		if d.Var == v {
			return d.Range.Rel
		}
	}
	return ""
}

// Next advances to the next distinct result tuple. It returns false at
// the end of the result, on error, or once the cursor's context is
// cancelled; consult Err to distinguish. Once Next has returned false
// the current row is cleared, so a late Row (or a Scan through the
// public wrapper) cannot silently re-read the final tuple.
func (c *Cursor) Next() bool {
	if c.closed || c.err != nil {
		c.cur = nil
		return false
	}
	if err := c.ctx.Err(); err != nil {
		return c.fail(err)
	}
	if c.yielded < c.set.n && c.db.Version() != c.ver {
		// A writer committed since the chunk was built: rebuild from
		// the first unyielded row against the new contents.
		c.set.truncate(c.yielded)
		c.i = c.resume
		c.pending = nil
	}
	if c.yielded == c.set.n {
		if c.pending == nil && c.refs != nil && c.i < c.refs.Len() {
			c.construct()
		}
		if c.yielded == c.set.n {
			if c.pending != nil {
				return c.fail(c.pending)
			}
			c.cur = nil
			return false
		}
	}
	c.resume = int(c.src[c.yielded-c.base]) + 1
	c.cur = c.set.row(c.yielded)
	c.yielded++
	return true
}

func (c *Cursor) fail(err error) bool {
	c.err = err
	c.cur = nil
	return false
}

// construct dereferences and projects reference tuples until the set
// holds constructChunk new rows or the tuples run out, all under one
// acquisition of the database read lock: construction is race-free
// against concurrent writers. Each reference is dereferenced through
// its column's relation, resolved once by newCursor, so no reference
// pays a catalog lookup. An element deleted since the combination
// phase surfaces as a stale-reference error (per-slot generations),
// not as a torn read. An error stops the chunk; it is reported once
// the rows built before it are yielded.
func (c *Cursor) construct() {
	if c.buf == nil {
		c.buf = make([]value.Value, len(c.cols))
		c.elems = make([][]value.Value, len(c.refs.Vars()))
		c.src = make([]int32, 0, min(constructChunk, c.refs.Len()))
	}
	n := c.refs.Len()
	c.base = c.set.n
	c.src = c.src[:0]
	c.db.RLock()
	defer c.db.RUnlock()
	c.ver = c.db.Version()
	for c.i < n && len(c.src) < constructChunk {
		if c.i%64 == 0 {
			if err := c.ctx.Err(); err != nil {
				c.pending = err
				return
			}
		}
		row := c.refs.Row(c.i)
		for _, col := range c.vars {
			ref := value.MakeOrd(value.KindRef, row[col], "")
			elem, err := c.rels[col].DerefInto(ref, c.elems[col])
			if err != nil {
				c.pending = err
				return
			}
			c.elems[col] = elem
		}
		for j, col := range c.cols {
			c.buf[j] = c.elems[col][c.fieldCols[j]]
		}
		if c.set.add(c.buf, n-c.i) {
			c.src = append(c.src, int32(c.i))
		}
		c.i++
	}
}

// Seed marks the rows prev has yielded as already yielded by c, so a
// re-executed cursor resumes a stream without repeating them. It must
// be called before c's first Next and before prev is closed.
func (c *Cursor) Seed(prev *Cursor) {
	for k := 0; k < prev.yielded; k++ {
		c.set.add(prev.set.row(k), prev.yielded-k)
	}
	c.yielded = c.set.n
	c.base = c.set.n
}

// Buffered reports how many rows the cursor has constructed beyond the
// current one: the rows the next Next calls yield without constructing.
func (c *Cursor) Buffered() int {
	if c.set == nil {
		return 0
	}
	return c.set.n - c.yielded
}

// Row returns the current tuple. It is valid until the next Next call
// and must not be modified.
func (c *Cursor) Row() []value.Value { return c.cur }

// Err returns the error that terminated iteration, if any — including
// ctx.Err() when the cursor's context was cancelled mid-stream.
func (c *Cursor) Err() error { return c.err }

// Close releases the buffered combination result and the construction
// set to the execution's workspace, which goes back to the pool; no row
// Next yielded may be read afterwards. Further Next calls return false.
// Close is idempotent and never fails; it exists for the
// database/sql-style defer rows.Close() idiom.
func (c *Cursor) Close() error {
	c.closed = true
	c.refs = nil
	c.set = nil
	c.cur = nil
	if ws := c.ws; ws != nil {
		c.ws = nil
		putWorkspace(ws)
	}
	return nil
}

// Schema returns the schema of the result relation the cursor produces.
func (c *Cursor) Schema() *schema.RelSchema { return c.sch }

// yieldedRows returns the rows Next has yielded, in yield order, and
// detaches the construction set's arena they alias: the rows belong to
// the caller, and Close returns the set without them. Call it once,
// after the cursor is drained.
func (c *Cursor) yieldedRows() [][]value.Value {
	out := make([][]value.Value, c.yielded)
	for k := range out {
		out[k] = c.set.row(k)
	}
	c.set.blocks = nil
	return out
}
