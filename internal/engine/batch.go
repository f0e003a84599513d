package engine

import (
	"context"
	"slices"

	"pascalr/internal/colbatch"
)

// The collection drive. A scan job materializes columnar batches
// (internal/colbatch) of its relation, restricted to the columns its
// tasks read, and hands each batch to every task: predicates run as
// bulk operations over whole columns producing selection bitmaps
// (preds.go), and only surviving rows reach the per-row structure
// builders (the tasks of exec.go).

// batchSize is the row capacity of one columnar batch. A variable, not
// a constant, so tests shrink it to stress batch-boundary and
// non-multiple-of-64 edge cases.
var batchSize = 1024

// planColumnMasks computes every scan job's column mask — the union of
// its tasks' footprints, sorted for a deterministic materialization
// order — so the scan copies only the columns some task actually reads
// (empty = references only).
func (p *plan) planColumnMasks() {
	for _, job := range p.jobs {
		cols := []int{}
		for _, t := range job.tasks {
			cols = append(cols, t.batchCols()...)
		}
		slices.Sort(cols)
		job.batchCols = slices.Compact(cols)
	}
}

// scanBatches drives the job's tasks over its relation's whole slot
// span: fill a batch, run every task's bulk predicate chain over it,
// flush, repeat. Cancellation is checked per batch, the final partial
// one included. The batch is the workspace's, one per width it has
// scanned, so repeated executions and queries that alternate relations
// of different widths reuse theirs.
func (p *plan) scanBatches(ctx context.Context, job *scanJob) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	b := p.ws.batch(len(job.rel.Schema().Cols))
	defer p.ws.putBatch(b)
	var sel colbatch.Bitmap
	flush := func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		rows := b.Len()
		kept := int64(0)
		for _, t := range job.tasks {
			sel.SetAll(rows)
			n, err := t.processBatch(b, &sel, p.st)
			if err != nil {
				return err
			}
			kept += int64(n)
		}
		job.batches++
		mBatchBatches.Inc()
		mBatchRows.Add(int64(rows))
		mBatchFilterRows.Add(int64(rows) * int64(len(job.tasks)))
		mBatchSelectedRows.Add(kept)
		hBatchSizeRows.Observe(int64(rows))
		return nil
	}
	return job.rel.ScanBatches(p.st, 0, job.rel.SlotSpan(), b, job.batchCols, flush)
}
