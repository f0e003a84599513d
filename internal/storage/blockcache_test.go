package storage

import (
	"fmt"
	"strings"
	"testing"
)

func bc(t *testing.T, budget int64) *BlockCache {
	t.Helper()
	c := NewBlockCache(budget)
	if c == nil {
		t.Fatalf("NewBlockCache(%d) = nil", budget)
	}
	return c
}

func TestBlockCacheLRUEviction(t *testing.T) {
	c := bc(t, 100)
	blk := func(i int) []byte { return make([]byte, 20) }
	for i := 0; i < 5; i++ { // fills the budget exactly
		c.Put(1, int64(i), blk(i))
	}
	if c.Used() != 100 || c.Len() != 5 {
		t.Fatalf("used=%d len=%d after fill", c.Used(), c.Len())
	}
	// Touch block 0 so it is MRU, then overflow: block 1 (now LRU) must
	// go, block 0 must stay.
	if _, ok := c.Get(1, 0); !ok {
		t.Fatal("block 0 missing before eviction")
	}
	c.Put(1, 5, blk(5))
	if _, ok := c.Get(1, 1); ok {
		t.Fatal("LRU block 1 survived eviction")
	}
	if _, ok := c.Get(1, 0); !ok {
		t.Fatal("MRU block 0 evicted")
	}
	if c.Used() > 100 {
		t.Fatalf("used=%d exceeds budget", c.Used())
	}
	if _, _, ev := c.Stats(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

func TestBlockCacheOversizedNotCached(t *testing.T) {
	c := bc(t, 100)
	c.Put(1, 0, make([]byte, 26)) // > budget/4
	if c.Len() != 0 {
		t.Fatal("oversized block was cached")
	}
	c.Put(1, 0, make([]byte, 25)) // == budget/4 is fine
	if c.Len() != 1 {
		t.Fatal("quarter-budget block not cached")
	}
}

func TestBlockCacheEvictFile(t *testing.T) {
	c := bc(t, 1000)
	for f := uint64(1); f <= 3; f++ {
		for off := int64(0); off < 4; off++ {
			c.Put(f, off, []byte(fmt.Sprintf("f%d-o%d", f, off)))
		}
	}
	c.EvictFile(2)
	for off := int64(0); off < 4; off++ {
		if _, ok := c.Get(2, off); ok {
			t.Fatalf("file 2 block %d survived EvictFile", off)
		}
		if _, ok := c.Get(1, off); !ok {
			t.Fatalf("file 1 block %d lost to EvictFile(2)", off)
		}
	}
	if c.Len() != 8 {
		t.Fatalf("len=%d after EvictFile, want 8", c.Len())
	}
}

func TestBlockCacheNilSafe(t *testing.T) {
	var c *BlockCache // == NewBlockCache(-1)
	if NewBlockCache(-1) != nil || NewBlockCache(0) != nil {
		t.Fatal("non-positive budget must return the nil cache")
	}
	c.Put(1, 0, []byte("x"))
	if _, ok := c.Get(1, 0); ok {
		t.Fatal("nil cache returned a hit")
	}
	c.EvictFile(1)
	if c.Used() != 0 || c.Len() != 0 {
		t.Fatal("nil cache reports residency")
	}
}

// TestDiskBlockCachePointReads verifies the wiring end to end: repeated
// point reads hit the cache, scans bypass it, and closing the backend
// leaves nothing resident.
func TestDiskBlockCachePointReads(t *testing.T) {
	cache := bc(t, 1<<20)
	d := NewDisk(t.TempDir(), 0, Options{MemtableEntries: 8, Fsync: SyncNever}, cache)
	defer d.Close()
	const n = 64
	slots := make([]int, n)
	for i := 0; i < n; i++ {
		si, err := d.Append(ikey(i), ituple(i))
		if err != nil {
			t.Fatal(err)
		}
		slots[i] = si
	}
	if err := d.Flush(); err != nil { // everything table-resident
		t.Fatal(err)
	}

	for i := 0; i < n; i++ { // first pass: misses populate both read paths
		if _, ok, err := d.Get(slots[i]); err != nil || !ok {
			t.Fatalf("get(%d) = %v %v", slots[i], ok, err)
		}
		if _, ok := d.LookupKey(ikey(i)); !ok {
			t.Fatalf("cold lookup(%d) missed", i)
		}
	}
	h0, m0, _ := cache.Stats()
	if m0 == 0 {
		t.Fatal("cold pass recorded no misses")
	}
	for pass := 0; pass < 4; pass++ { // warm passes: all hits
		for i := 0; i < n; i++ {
			if _, ok, err := d.Get(slots[i]); err != nil || !ok {
				t.Fatalf("warm get(%d) = %v %v", slots[i], ok, err)
			}
			if _, ok := d.LookupKey(ikey(i)); !ok {
				t.Fatalf("warm lookup(%d) missed", i)
			}
		}
	}
	h1, m1, _ := cache.Stats()
	if m1 != m0 {
		t.Fatalf("warm passes missed: %d -> %d", m0, m1)
	}
	if h1 <= h0 {
		t.Fatalf("warm passes did not hit: %d -> %d", h0, h1)
	}

	// Scans bypass the cache: a full sweep must not change residency.
	lenBefore := cache.Len()
	if rows := snapshot(t, d, ituple); !strings.Contains(rows, fmt.Sprintf("%d:", slots[n-1])) {
		t.Fatalf("full sweep missed the last row:\n%s", rows)
	}
	if cache.Len() != lenBefore {
		t.Fatalf("scan changed cache residency %d -> %d", lenBefore, cache.Len())
	}

	// Closing the backend closes its tables, which evict their blocks.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 0 {
		t.Fatalf("%d blocks resident after Close", cache.Len())
	}
}
