package engine

import "pascalr/internal/obs"

// Engine-layer metrics. Registered once at package init; the hot paths
// touch only the returned atomics. Span tracing (internal/obs) rides the
// context instead — see collectWithAdaptation and rowsWithPlan — and
// never writes into stats.Counters, so counter fingerprints are
// bit-identical with tracing on or off.
var (
	mParallelShards = obs.GetCounter("pascal_engine_parallel_shards_total",
		"Collection-phase scan shards fanned out to the scheduler worker pool")
	mQueries = obs.GetCounter("pascal_engine_queries_total",
		"Query executions started (collection + combination phases)")
	mQueryLatency = obs.GetHistogram("pascal_engine_query_seconds",
		"Latency of the eager collection + combination phases per execution")

	// Collection-drive metrics: batches produced, rows materialized into
	// them, rows entering bulk predicate evaluation (rows × tasks, the
	// selection-density denominator), rows surviving it, rows evaluated
	// row-at-a-time through lifted predicates, and the rows-per-batch
	// distribution.
	mBatchBatches = obs.GetCounter("pascal_engine_batch_batches_total",
		"Columnar batches produced by vectorized collection-phase scans")
	mBatchRows = obs.GetCounter("pascal_engine_batch_rows_total",
		"Rows materialized into columnar batches")
	mBatchFilterRows = obs.GetCounter("pascal_engine_batch_filter_rows_total",
		"Rows entering bulk selection-vector filtering (batch rows x tasks)")
	mBatchSelectedRows = obs.GetCounter("pascal_engine_batch_selected_rows_total",
		"Rows surviving bulk selection-vector filtering across all tasks")
	mBatchLiftedRows = obs.GetCounter("pascal_engine_batch_lifted_rows_total",
		"Rows evaluated row-at-a-time through lifted derived predicates inside batches")
	hBatchSizeRows = obs.GetValueHistogram("pascal_engine_batch_size_rows",
		"Rows per columnar batch produced by vectorized scans",
		[]float64{1, 4, 16, 64, 256, 1024, 4096})
)
