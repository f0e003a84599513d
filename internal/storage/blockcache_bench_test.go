package storage

import (
	"strings"
	"testing"

	"pascalr/internal/value"
)

// BenchmarkBlockCache times the block cache at both granularities. The
// cold/warm pair measures the block fetch itself — cachedBlock paying a
// pread, an allocation and the block's CRC versus serving the verified
// payload from the cache — which is the latency the cache exists to
// remove. The pointget pair measures the same contrast end to end
// through Disk.Get, where the slot search and row decode run on both
// paths and dilute the ratio. CI converts the output to
// BENCH_storage_tier.json.
func BenchmarkBlockCache(b *testing.B) {
	b.Run("cold", func(b *testing.B) { benchSegmentFetch(b, nil) })
	b.Run("warm", func(b *testing.B) { benchSegmentFetch(b, NewBlockCache(32<<20)) })
	b.Run("pointget-cold", func(b *testing.B) { benchPointReads(b, nil) })
	b.Run("pointget-warm", func(b *testing.B) { benchPointReads(b, NewBlockCache(32<<20)) })
}

// benchSegmentFetch cycles cachedBlock over every data block of one
// wide SSTable (~240 bytes a record).
func benchSegmentFetch(b *testing.B, cache *BlockCache) {
	d := NewDisk(b.TempDir(), 0, Options{
		Fsync:           SyncNever,
		MemtableEntries: 1 << 20, // one flush, one table
	}, cache)
	defer d.Close()
	pad := strings.Repeat("x", 224)
	const n = 2048
	for i := 0; i < n; i++ {
		tuple := []value.Value{value.Int(int64(i)), value.String_(pad)}
		if _, err := d.Append(ikey(i), tuple); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		b.Fatal(err)
	}
	t := d.tables[0]
	var v blockView
	for bi := range t.blocks { // populate the cache (no-op when nil)
		if err := t.cachedBlock(bi, &v); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := t.cachedBlock(i%len(t.blocks), &v); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPointReads cycles Disk.Get over a flushed table's slots.
func benchPointReads(b *testing.B, cache *BlockCache) {
	d := NewDisk(b.TempDir(), 0, Options{
		Fsync:           SyncNever,
		MemtableEntries: 64,
	}, cache)
	defer d.Close()
	const n = 4096
	slots := make([]int, n)
	for i := 0; i < n; i++ {
		s, err := d.Append(ikey(i), ituple(i))
		if err != nil {
			b.Fatal(err)
		}
		slots[i] = s
	}
	if err := d.Flush(); err != nil { // every row table-resident
		b.Fatal(err)
	}
	for i := 0; i < n; i++ { // populate the cache (no-op when nil)
		if _, ok, err := d.Get(slots[i]); err != nil || !ok {
			b.Fatalf("prewarm get(%d) = %v %v", slots[i], ok, err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := d.Get(slots[i%n]); err != nil || !ok {
			b.Fatalf("get = %v %v", ok, err)
		}
	}
	b.StopTimer()
	if cache != nil {
		hits, misses, _ := cache.Stats()
		if hits+misses > 0 {
			b.ReportMetric(float64(hits)/float64(hits+misses), "hit-rate")
		}
	}
}
