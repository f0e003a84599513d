package relation

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"pascalr/internal/schema"
	"pascalr/internal/storage"
)

// benchWideSchema mirrors wideSchema for benchmarks: a roomy key range
// so benchmark-sized workloads never exhaust the domain.
func benchWideSchema(name string) *schema.RelSchema {
	return schema.MustRelSchema(name, []schema.Column{
		{Name: "id", Type: schema.IntType("widetype", 1, 1<<30)},
		{Name: "payload", Type: schema.StringType("padtype", 32)},
	}, []string{"id"})
}

// BenchmarkGroupCommit measures SyncAlways insert throughput as writer
// concurrency grows. With one writer every record pays its own fsync;
// with several, concurrent commits coalesce behind a single leader
// sync, so per-insert latency must fall well below the lone-writer
// price. CI converts the output to BENCH_storage_tier.json and expects
// the 8-writer leg to be at least 2x the 1-writer throughput.
func BenchmarkGroupCommit(b *testing.B) {
	for _, writers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			benchGroupCommit(b, writers)
		})
	}
}

func benchGroupCommit(b *testing.B, writers int) {
	opts := storage.Options{
		Fsync:              storage.SyncAlways,
		MemtableEntries:    1 << 20, // keep spills out of the timing
		CheckpointWALBytes: -1,
	}
	d, err := OpenDB(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	r, err := d.Create(benchWideSchema("wide"))
	if err != nil {
		b.Fatal(err)
	}
	var next atomic.Int64
	var failed atomic.Bool
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < b.N; k += writers {
				if _, err := r.Insert(wrow(next.Add(1), "pad")); err != nil {
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	if failed.Load() {
		b.Fatal("insert failed under concurrency")
	}
	if r.Len() != int(next.Load()) {
		b.Fatalf("row count %d, want %d", r.Len(), next.Load())
	}
}
