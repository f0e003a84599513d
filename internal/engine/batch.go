package engine

import (
	"context"
	"slices"
	"sync"

	"pascalr/internal/colbatch"
	"pascalr/internal/stats"
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
// (nil = whole rows, empty = references only).
func (p *plan) planColumnMasks() {
	for _, job := range p.jobs {
		cols, all := []int{}, false
		for _, t := range job.tasks {
			tc, ta := t.batchCols()
			all = all || ta
			cols = append(cols, tc...)
		}
		if !all {
			slices.Sort(cols)
			job.batchCols = slices.Compact(cols)
		}
	}
}

// batchPool recycles columnar batches across scans and executions: the
// buffers are the dominant per-execution allocation of the collection
// phase (cols × batchSize values), and without reuse the GC pressure
// erases the bulk-evaluation win on repeated queries. A batch whose
// shape no longer matches (different column count, or a test shrank
// batchSize) is simply dropped and a fresh one allocated.
var batchPool sync.Pool

func getBatch(ncols int) *colbatch.Batch {
	if v := batchPool.Get(); v != nil {
		b := v.(*colbatch.Batch)
		if b.NumCols() == ncols && b.Cap() == batchSize {
			return b
		}
	}
	return colbatch.New(ncols, batchSize)
}

func putBatch(b *colbatch.Batch) {
	b.Reset()
	batchPool.Put(b)
}

// scanSlotRange drives the given tasks over one slot range of the job's
// relation — a full scan, or one shard of a split scan: fill a batch,
// run every task's bulk predicate chain over it, flush, repeat.
// Cancellation is checked per batch, the final partial one included.
func (p *plan) scanSlotRange(ctx context.Context, job *scanJob, tasks []scanTask, st *stats.Counters, lo, hi int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	b := getBatch(len(job.rel.Schema().Cols))
	defer putBatch(b)
	snk := &scanSink{st: st}
	var sel colbatch.Bitmap
	flush := func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		rows := b.Len()
		kept := int64(0)
		for _, t := range tasks {
			sel.SetAll(rows)
			n, err := t.processBatch(b, &sel, snk)
			if err != nil {
				return err
			}
			kept += int64(n)
		}
		job.batches.Add(1)
		mBatchBatches.Inc()
		mBatchRows.Add(int64(rows))
		mBatchFilterRows.Add(int64(rows) * int64(len(tasks)))
		mBatchSelectedRows.Add(kept)
		hBatchSizeRows.Observe(int64(rows))
		return nil
	}
	err := job.rel.ScanBatches(st, lo, hi, b, job.batchCols, flush)
	job.liftedRows.Add(snk.liftedRows)
	mBatchLiftedRows.Add(snk.liftedRows)
	return err
}
