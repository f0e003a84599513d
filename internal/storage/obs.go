package storage

import "pascalr/internal/obs"

// Storage metrics. Every hook sits on a path that already holds the
// relation layer's content lock (WAL appends, flush, compaction) or is
// a plain atomic increment beside an existing one (bloom counters), so
// none of them introduces new synchronization.
var (
	mWALAppends = obs.GetCounter("pascal_storage_wal_appends_total",
		"Records appended to the write-ahead log")
	mWALBytes = obs.GetCounter("pascal_storage_wal_bytes_total",
		"Framed bytes written to the write-ahead log")
	mWALFsyncs = obs.GetCounter("pascal_storage_wal_fsyncs_total",
		"fsync calls issued by the write-ahead log")
	mWALFsyncLatency = obs.GetHistogram("pascal_storage_wal_fsync_seconds",
		"Write-ahead log fsync latency")
	mMemtableSpills = obs.GetCounter("pascal_storage_memtable_spills_total",
		"Memtable flushes that wrote a new SSTable")
	mSSTableReads = obs.GetCounter("pascal_storage_sstable_reads_total",
		"SSTable accesses (point gets, key probes, and per-table scans)")
	mSSTableBlocksRead = obs.GetCounter("pascal_storage_sstable_blocks_read_total",
		"SSTable data blocks read from file (scans, compactions, and point reads that missed the block cache)")
	mSSTableBlockBytes = obs.GetCounter("pascal_storage_sstable_block_bytes_total",
		"Bytes of SSTable data blocks read from file, each CRC-checked and decoded")
	mBloomHits = obs.GetCounter("pascal_storage_bloom_hits_total",
		"Key probes the bloom filter passed through to the table")
	mBloomSkips = obs.GetCounter("pascal_storage_bloom_skips_total",
		"Key probes the bloom filter answered negatively without I/O")
	mCompactions = obs.GetCounter("pascal_storage_compactions_total",
		"SSTable compaction runs")
	mCompactionBytes = obs.GetCounter("pascal_storage_compaction_bytes_total",
		"Bytes written by SSTable compactions")
	mCompactionTables = obs.GetCounter("pascal_storage_compaction_tables_total",
		"SSTable files consumed as compaction inputs")
	mBlockCacheHits = obs.GetCounter("pascal_storage_block_cache_hits_total",
		"Point-read segments served from the block cache")
	mBlockCacheMisses = obs.GetCounter("pascal_storage_block_cache_misses_total",
		"Point-read segments that missed the block cache and paid file I/O")
	mBlockCacheEvictions = obs.GetCounter("pascal_storage_block_cache_evictions_total",
		"Blocks evicted from the block cache to hold the byte budget")
	mGroupCommitBatches = obs.GetCounter("pascal_storage_group_commit_batches_total",
		"Group-commit fsync batches (each covers >= 1 appended record)")
)
