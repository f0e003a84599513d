// Package storage is the durable storage subsystem behind the relation
// layer: the slot store of a relation (Disk, see its contract), a
// CRC-checksummed write-ahead log with configurable fsync policy, and
// the LSM-ish tier under the store (a slot-ordered in-memory column
// memtable flushing to immutable SSTable files of columnar blocks, with
// bloom filters and sparse key indexes).
//
// # Durability
//
// A store with no directory (NewMemory) is volatile: its memtable holds
// every slot and never spills. A store with a directory (NewDisk,
// OpenDisk) spills its memtable to immutable SSTables; together with the
// WAL (wal.go) and the checkpoint manifest (manifest.go) the relation
// layer composes such stores into a crash-recoverable database.
package storage

import "runtime"

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
