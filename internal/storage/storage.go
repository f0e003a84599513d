// Package storage is the durable storage subsystem behind the relation
// layer: a pluggable slot-storage backend interface, a CRC-checksummed
// write-ahead log with configurable fsync policy, and an LSM-ish disk
// tier (sorted in-memory memtable flushing to immutable SSTable files
// of columnar blocks, with bloom filters and sparse key indexes).
//
// # Backend contract
//
// A Backend stores the slots of one relation. Slot indexes are handed
// out by Append in strictly ascending order and are never reused: a
// slot that dies (Delete, Reset) stays dead forever. That append-only
// discipline is what makes the relation layer's reference staleness
// check (per-slot generation counters) collapse to "live slot ==
// generation zero", and it is what lets the disk tier keep immutable
// SSTable files whose slot ranges never overlap.
//
// Backends are NOT internally synchronized. The relation layer
// serializes mutators under its database-wide content write lock and
// readers under the content read lock, exactly as it always did for the
// in-memory slot array.
//
// # Durability
//
// The memory backend is the default and is volatile — it is today's
// in-memory slot storage behind the interface. The disk backend keeps a
// memtable of recent appends and spills immutable SSTables; together
// with the WAL (wal.go) and the checkpoint manifest (manifest.go) the
// relation layer composes them into a crash-recoverable database.
package storage

import (
	"runtime"

	"pascalr/internal/colbatch"
	"pascalr/internal/value"
)

// Backend stores the slots of one relation: an append-only array of
// (tuple, live) entries plus a key directory. See the package comment
// for the synchronization and slot-reuse contract.
type Backend interface {
	// SlotSpan returns the exclusive upper bound of slot indexes — the
	// range Scan shards partition.
	SlotSpan() int

	// Get returns the tuple stored at slot si and whether the slot is
	// live. Dead or never-allocated slots return (nil, false, nil).
	// The returned tuple must not be modified or retained across
	// mutations.
	Get(si int) (tuple []value.Value, live bool, err error)

	// Scan calls fn for every live slot in [lo, hi) in ascending slot
	// order, until fn returns false. Bounds are clamped to the slot
	// span.
	Scan(lo, hi int, fn func(si int, tuple []value.Value) bool) error

	// ScanBatchesInto is the columnar scan: it appends every live slot
	// in [lo, hi), in ascending slot order, to b — the slot index plus
	// the columns listed in cols (nil = all columns, an empty list =
	// none) — and calls flush whenever b fills, plus once for a trailing
	// partial batch. flush counts, consumes and resets the batch; its
	// error aborts the scan and is returned. Int-backed columns of a
	// configured batch are filled as raw ordinals. Bounds are clamped to
	// the slot span.
	ScanBatchesInto(lo, hi int, cols []int, b *colbatch.Batch, flush func() error) error

	// LookupKey returns the live slot holding the tuple whose encoded
	// primary key is enc.
	LookupKey(enc string) (si int, ok bool)

	// Append stores a new live tuple under the encoded key enc and
	// returns its slot index (== the previous SlotSpan). The caller has
	// already checked that enc is not present. The backend takes
	// ownership of the tuple slice.
	Append(enc string, tuple []value.Value) (si int, err error)

	// Delete kills slot si, which currently holds the encoded key enc.
	Delete(si int, enc string) error

	// Reset kills every live slot (the := assignment). Slot indexes are
	// not reused: the next Append continues from the current span.
	Reset() error

	// Costs returns the backend's access-cost profile.
	Costs() CostProfile

	// Close releases resources (open file handles). The backend is
	// unusable afterwards.
	Close() error
}

// CostProfile prices a backend's primitive accesses relative to an
// in-memory slot read (== 1.0). The statistics layer carries it so
// shard balancing can budget more parallelism for expensive scans; plan
// *shape* deliberately does not depend on it — permanent and transient
// index structures are RAM-resident on every backend, so the optimal
// plan is backend-invariant and the differential test matrix can demand
// bit-identical counters across backends.
type CostProfile struct {
	// ScanTuple is the relative cost of visiting one tuple in a scan.
	ScanTuple float64
	// Probe is the relative cost of one key lookup.
	Probe float64
}

// memoryCosts is the unit profile of the in-memory backend.
var memoryCosts = CostProfile{ScanTuple: 1, Probe: 1}

// diskCosts is the static profile of the SSTable-backed tier: scanning
// reads, checksums and decodes blocks from (page-cached) files, probing
// pays bloom checks and a key-index segment read to resolve the slot,
// then a block-directory lookup and one block read (both reads through
// the block cache) to fetch the row. ScanTuple is the measured
// disk/memory batch-scan ratio, rounded: cmd/bench's storage probe
// (storage.disk_vs_mem_scan_ratio, every column of timetable) reads
// 19 ns a row from SSTable blocks against 6.4 to 9.9 ns from the memory
// backend, a ratio of 2.0 to 3.0.
var diskCosts = CostProfile{ScanTuple: 3, Probe: 16}

// FsyncPolicy says when the WAL fsyncs.
type FsyncPolicy int

const (
	// SyncAlways fsyncs after every appended record — full durability,
	// one fsync per effective mutation.
	SyncAlways FsyncPolicy = iota
	// SyncNever leaves flushing to the OS — contents are crash-
	// consistent (the CRC drops a torn tail) but the tail of recent
	// mutations may be lost. Tests and bulk loads use it.
	SyncNever
)

// Options configures a durable database's storage.
type Options struct {
	// Fsync is the WAL durability policy. Default SyncAlways.
	Fsync FsyncPolicy
	// MemtableEntries is the number of memtable entries (live or dead)
	// that triggers a flush to an SSTable. Default 4096; tests use tiny
	// values to force spills.
	MemtableEntries int
	// CheckpointWALBytes is the WAL size that triggers a background
	// checkpoint, bounding replay time. Default 4 MiB; 0 keeps the
	// default, a negative value disables automatic checkpoints.
	CheckpointWALBytes int64
	// BlockCacheBytes is the byte budget of the shared SSTable block
	// cache fronting point reads. Default 8 MiB; 0 keeps the default, a
	// negative value disables the cache.
	BlockCacheBytes int64
	// ReplayWorkers is the worker count for parallel WAL replay on open.
	// Replay partitions mutation records by relation, so workers beyond
	// the number of mutated relations sit idle. Default GOMAXPROCS; 0
	// keeps the default, a negative value forces serial replay.
	ReplayWorkers int
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.MemtableEntries <= 0 {
		o.MemtableEntries = 4096
	}
	if o.CheckpointWALBytes == 0 {
		o.CheckpointWALBytes = 4 << 20
	}
	if o.BlockCacheBytes == 0 {
		o.BlockCacheBytes = 8 << 20
	}
	if o.ReplayWorkers == 0 {
		o.ReplayWorkers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Defaults returns o with unset fields filled in; the relation layer
// normalizes its options once through this.
func (o Options) Defaults() Options { return o.withDefaults() }
