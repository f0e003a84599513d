package main

// metricDef is one row of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndMetrics are the metrics every workload reports with tracing
// off; BENCHMARK.json carries the same rows (bench_test.go holds the
// two together). The pipeline's metric list is global across workloads,
// so only metrics that exist on all five are here; write latency,
// recovery time, disk amplification and the error rate are printed with
// them where they apply and listed under extraMetrics.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"read_p99_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KiB", "lower", 0.05},
	{"allocs_per_op", "count", "lower", 0.05},
	{"heap_mb", "MiB", "lower", 0.05},
}

// extraMetrics are end-to-end figures that exist only on some
// workloads. The traced run reports them as informational per-layer
// rows, falling back to the storage and write probes where the workload
// itself has no such operation.
var extraMetrics = []metricDef{
	{"write_p50_ms", "ms", "lower", 0},
	{"write_p99_ms", "ms", "lower", 0},
	{"recovery_s", "s", "lower", 0},
	{"disk_bytes_per_user_byte", "ratio", "lower", 0},
	{"error_rate", "fraction", "lower", 0},
}

// perLayerMetrics are the traced run's metrics, layer = module name.
var perLayerMetrics = []metricDef{
	{"client.roundtrip_us", "us", "lower", 0},
	{"client.fetch_batches_per_op", "count", "lower", 0},
	{"client.decode_us_per_krow", "us", "lower", 0},
	{"protocol.encode_us_per_krow", "us", "lower", 0},
	{"protocol.bytes_per_row", "B", "lower", 0},
	{"server.overhead_us", "us", "lower", 0},
	{"server.frames_per_op", "count", "lower", 0},
	{"pascalr.prepare_us", "us", "lower", 0},
	{"pascalr.plan_cache_hit_ratio", "ratio", "higher", 0},
	{"parser.parse_us", "us", "lower", 0},
	{"calculus.check_us", "us", "lower", 0},
	{"normalize.standardize_us", "us", "lower", 0},
	{"optimizer.transform_us", "us", "lower", 0},
	{"engine.compile_us", "us", "lower", 0},
	{"engine.compile_self_us", "us", "lower", 0},
	{"engine.exec_us", "us", "lower", 0},
	{"engine.collection_us", "us", "lower", 0},
	{"engine.combination_us", "us", "lower", 0},
	{"engine.construction_us", "us", "lower", 0},
	{"engine.tuples_read_per_op", "count", "lower", 0},
	{"engine.comparisons_per_op", "count", "lower", 0},
	{"engine.index_probes_per_op", "count", "lower", 0},
	{"engine.ref_tuples_per_op", "count", "lower", 0},
	{"engine.peak_ref_tuples", "count", "lower", 0},
	{"engine.rows_examined_per_row_returned", "ratio", "lower", 0},
	{"engine.batch_scan_share", "ratio", "higher", 0},
	{"engine.batch_selected_ratio", "ratio", "lower", 0},
	{"engine.scan_qerror_p50", "ratio", "lower", 0},
	{"engine.scan_qerror_max", "ratio", "lower", 0},
	{"engine.join_qerror_max", "ratio", "lower", 0},
	{"engine.stale_retries_per_kop", "count", "lower", 0},
	{"collection.scan_us", "us", "lower", 0},
	{"collection.largest_scan_us", "us", "lower", 0},
	{"algebra.join_us", "us", "lower", 0},
	{"algebra.joins_per_op", "count", "lower", 0},
	{"sched.async_jobs_per_kwrite", "count", "lower", 0},
	{"stats.estimator_snapshot_us", "us", "lower", 0},
	{"relation.insert_us", "us", "lower", 0},
	{"relation.deref_us", "us", "lower", 0},
	{"relation.write_solo_p50_us", "us", "lower", 0},
	{"relation.write_contention_ratio", "ratio", "lower", 0},
	{"storage.mem_scan_ns_per_row", "ns", "lower", 0},
	{"storage.disk_scan_ns_per_row", "ns", "lower", 0},
	{"storage.disk_vs_mem_scan_ratio", "ratio", "lower", 0},
	{"storage.disk_get_us", "us", "lower", 0},
	{"storage.disk_get_cold_us", "us", "lower", 0},
	{"storage.lookupkey_us", "us", "lower", 0},
	{"storage.blockcache_hit_ratio", "ratio", "higher", 0},
	{"storage.blockcache_evictions_per_kop", "count", "lower", 0},
	{"storage.bloom_skip_ratio", "ratio", "higher", 0},
	{"storage.sstable_reads_per_op", "count", "lower", 0},
	{"storage.wal_append_us", "us", "lower", 0},
	{"storage.wal_wait_durable_us", "us", "lower", 0},
	{"storage.wal_fsyncs_per_write", "ratio", "lower", 0},
	{"storage.group_commit_batch_size", "count", "higher", 0},
	{"storage.wal_bytes_per_user_byte", "ratio", "lower", 0},
	{"storage.compaction_bytes_per_user_byte", "ratio", "lower", 0},
	{"storage.memtable_spills", "count", "lower", 0},
	{"storage.compactions", "count", "lower", 0},
	{"storage.checkpoints", "count", "lower", 0},
	{"storage.checkpoint_s_total", "s", "lower", 0},
	{"storage.tables_at_end", "count", "lower", 0},
	{"obs.trace_overhead_ratio", "ratio", "higher", 0},
}

// contractMetrics are the metric names the pipeline's result line
// carries, by -trace value: with 0 every end-to-end metric, with 1
// every per-layer metric.
var contractMetrics = func() map[string]map[string]bool {
	m := map[string]map[string]bool{"0": {}, "1": {}}
	for _, d := range endToEndMetrics {
		m["0"][d.Name] = true
	}
	for _, defs := range [][]metricDef{perLayerMetrics, extraMetrics} {
		for _, d := range defs {
			m["1"][d.Name] = true
		}
	}
	return m
}()
