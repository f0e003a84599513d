package engine

import (
	"sync"

	"pascalr/internal/algebra"
	"pascalr/internal/colbatch"
	"pascalr/internal/collection"
	"pascalr/internal/recycle"
)

// workspace is the memory of one execution: it lends the structures of
// all three phases — the collection phase's single lists, indexes,
// indirect joins, value lists and range lists, the combination phase's
// reference relations and scratch tables, the construction set and
// strategy 4's tuple lists — and the scan batches, and takes them back
// at fixed points, keeping their memory for the next execution:
//
//   - once combine has built the final reference relation, everything
//     but that relation (Plan.rowsWithPlan; EXPLAIN keeps the plan's
//     structures until its report is built);
//   - at Cursor.Close, the final relation and the construction set;
//   - a scan's batch, when the scan ends.
//
// It never takes back what it did not lend: a materialized result's
// rows belong to the caller (Cursor.yieldedRows detaches them), and a
// permanent index's hits and the stored rows belong to the relation.
//
// Every recycle.TrimEvery executions it drops the memory far beyond what
// those executions used, so a large execution does not leave its memory
// to be held, and cleared, by every smaller one after it.
//
// A workspace lives only in the workspaces pool, never on a Plan or a
// Stmt, so two garbage collections drop an idle one.
type workspace struct {
	coll    collection.Workspace
	alg     algebra.Workspace
	sets    recycle.List[rowSet]
	batches []*colbatch.Batch // free scan batches, of any width
	execs   int               // executions served
}

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

func getWorkspace() *workspace { return workspaces.Get().(*workspace) }

// putWorkspace ends ws's execution and pools it.
func putWorkspace(ws *workspace) {
	ws.finish()
	workspaces.Put(ws)
}

// finish takes back everything ws lent and, every recycle.TrimEvery
// executions, trims what it keeps.
func (ws *workspace) finish() {
	ws.release(nil)
	if ws.execs++; ws.execs%recycle.TrimEvery != 0 {
		return
	}
	ws.coll.Trim()
	ws.alg.Trim()
	ws.sets.Trim(func(s *rowSet) {
		n := min(len(s.blocks), (s.peak+arenaBlock-1)/arenaBlock)
		clear(s.blocks[n:])
		s.blocks = s.blocks[:n]
		s.table, s.peak = recycle.Keep(s.table, 2*s.peak), 0
	})
}

// rowSet lends an empty set of rows of w values.
func (ws *workspace) rowSet(w int) *rowSet {
	s := ws.sets.Lend()
	s.reset(w)
	return s
}

// release takes back every structure lent, except the reference
// relation keep (nil: all of them).
func (ws *workspace) release(keep *algebra.RefRel) {
	ws.coll.Release()
	ws.alg.Release(keep)
	ws.sets.Return(nil, func(s *rowSet) {
		s.peak = max(s.peak, s.n)
		for _, b := range s.blocks {
			recycle.Fill(b, recycle.Value)
		}
		recycle.Scrub(s.table, ^uint64(0))
	})
}

// batch lends a scan batch of ncols columns at the current batchSize.
func (ws *workspace) batch(ncols int) *colbatch.Batch {
	for i, b := range ws.batches {
		if b.NumCols() == ncols && b.Cap() == batchSize {
			last := len(ws.batches) - 1
			ws.batches[i], ws.batches[last] = ws.batches[last], nil
			ws.batches = ws.batches[:last]
			return b
		}
	}
	return colbatch.New(ncols, batchSize)
}

// putBatch takes back a batch whose scan ended.
func (ws *workspace) putBatch(b *colbatch.Batch) {
	for c := range b.NumCols() {
		recycle.Fill(b.Strs(c), recycle.Str)
		recycle.Scrub(b.Ords(c), recycle.Word)
	}
	b.Reset()
	ws.batches = append(ws.batches, b)
}
