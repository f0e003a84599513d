package storage

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// BlockCache is the byte-budgeted LRU block cache shared by every
// SSTable of a database. It caches what point reads decode — the data
// block a Get searches (its verified payload, so a hit pays no CRC) and
// the bounded sparse-key run a ProbeKey walks — keyed by (file,
// offset): the offset comes from the table's immutable block directory
// or sparse key index, so the key fully determines the bytes and a
// cached entry never goes stale while its file exists. Closing a table
// evicts its entries, so a compacted-away file cannot serve reads from
// beyond the grave.
//
// Two cache tiers front the disk tier's reads. The handle tier is the
// open ssTable itself: bloom filter, block directory and sparse key
// index, loaded once at open and pinned for the table's lifetime (they
// are small and every probe consults them). This LRU is the block tier
// underneath, holding the data bytes those structures point into.
// Sequential scans deliberately bypass it — one large scan would
// otherwise flush the whole point-read working set (classic scan
// resistance); scans read block by block into one buffer of their own
// instead.
//
// Unlike the backends it serves, the cache IS internally synchronized:
// concurrent readers under the database content read lock probe tables
// (and therefore the cache) in parallel.
type BlockCache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	ll     *list.List // MRU at the front
	m      map[blockKey]*list.Element

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type blockKey struct {
	file uint64
	off  int64
}

type blockEntry struct {
	key  blockKey
	data []byte
}

// NewBlockCache returns a cache evicting least-recently-used entries
// beyond the given byte budget. A budget <= 0 returns nil — the nil
// cache is valid and caches nothing.
func NewBlockCache(budget int64) *BlockCache {
	if budget <= 0 {
		return nil
	}
	return &BlockCache{
		budget: budget,
		ll:     list.New(),
		m:      make(map[blockKey]*list.Element),
	}
}

// Get returns the cached block for (file, off), promoting it to
// most-recently-used. The returned bytes are shared — callers must not
// modify them.
func (c *BlockCache) Get(file uint64, off int64) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	e, ok := c.m[blockKey{file, off}]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		mBlockCacheMisses.Inc()
		return nil, false
	}
	c.ll.MoveToFront(e)
	data := e.Value.(*blockEntry).data
	c.mu.Unlock()
	c.hits.Add(1)
	mBlockCacheHits.Inc()
	return data, true
}

// Put inserts a block, evicting from the LRU tail until the budget
// holds. Blocks larger than a quarter of the budget are not cached at
// all — one oversized segment must not wipe the working set. Put takes
// ownership of data (callers hand over freshly read buffers).
func (c *BlockCache) Put(file uint64, off int64, data []byte) {
	if c == nil || int64(len(data)) > c.budget/4 {
		return
	}
	k := blockKey{file, off}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[k]; ok {
		// Racing readers both missed and both read the file: the bytes
		// are identical, keep the resident entry.
		c.ll.MoveToFront(e)
		return
	}
	e := c.ll.PushFront(&blockEntry{key: k, data: data})
	c.m[k] = e
	c.used += int64(len(data))
	for c.used > c.budget {
		tail := c.ll.Back()
		if tail == nil {
			break
		}
		c.removeLocked(tail)
		c.evictions.Add(1)
		mBlockCacheEvictions.Inc()
	}
}

// EvictFile drops every cached block of the given file — called when a
// table handle closes (compaction obsoleted it), so no read can be
// served from a file the GC is about to unlink.
func (c *BlockCache) EvictFile(file uint64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.m {
		if k.file == file {
			c.removeLocked(e)
		}
	}
}

func (c *BlockCache) removeLocked(e *list.Element) {
	ent := e.Value.(*blockEntry)
	c.ll.Remove(e)
	delete(c.m, ent.key)
	c.used -= int64(len(ent.data))
}

// Used returns the resident byte count.
func (c *BlockCache) Used() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Len returns the resident block count.
func (c *BlockCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns cumulative hit/miss/eviction counts.
func (c *BlockCache) Stats() (hits, misses, evictions uint64) {
	if c == nil {
		return 0, 0, 0
	}
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}
