package engine

import "pascalr/internal/obs"

// Engine-layer metrics. Registered once at package init; the hot paths
// touch only the returned atomics. Span tracing (internal/obs) rides the
// context instead — see collectWithAdaptation and rowsWithPlan — and
// never writes into stats.Counters, so counter fingerprints are
// bit-identical with tracing on or off.
var (
	mQueries = obs.GetCounter("pascal_engine_queries_total",
		"Query executions started (collection + combination phases)")
	mQueryLatency = obs.GetHistogram("pascal_engine_query_seconds",
		"Latency of the eager collection + combination phases per execution")

	// Collection-drive metrics: batches produced, rows materialized into
	// them, rows entering bulk predicate evaluation (rows × tasks, the
	// selection-density denominator), rows surviving it, and the
	// rows-per-batch distribution.
	mBatchBatches = obs.GetCounter("pascal_engine_batch_batches_total",
		"Columnar batches produced by vectorized collection-phase scans")
	mBatchRows = obs.GetCounter("pascal_engine_batch_rows_total",
		"Rows materialized into columnar batches")
	mBatchFilterRows = obs.GetCounter("pascal_engine_batch_filter_rows_total",
		"Rows entering bulk selection-vector filtering (batch rows x tasks)")
	mBatchSelectedRows = obs.GetCounter("pascal_engine_batch_selected_rows_total",
		"Rows surviving bulk selection-vector filtering across all tasks")
	hBatchSizeRows = obs.GetValueHistogram("pascal_engine_batch_size_rows",
		"Rows per columnar batch produced by vectorized scans",
		[]float64{1, 4, 16, 64, 256, 1024, 4096})
)
