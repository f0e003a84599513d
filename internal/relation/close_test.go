package relation

import (
	"sync"
	"testing"

	"pascalr/internal/value"
)

// TestCloseQuiescesDriftRebuilds races drift-triggering mutations
// against DB.Close: a rebuild scheduled before Close completes inside
// it, one triggered after is rejected, and mutations keep working on
// the closed database (statistics simply stop re-bucketing). Run under
// -race this is the shutdown-vs-background-rebuild regression test.
func TestCloseQuiescesDriftRebuilds(t *testing.T) {
	db, rel := statsDB(t)
	// Seed enough rows that the incremental maintenance has real
	// histograms to drift from.
	for i := 0; i < 200; i++ {
		if _, err := rel.Insert([]value.Value{value.Int(int64(i)), value.Int(int64(i % 7))}); err != nil {
			t.Fatal(err)
		}
	}
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			base := int64(1000 + g*10000)
			for i := int64(0); i < 500; i++ {
				if _, err := rel.Insert([]value.Value{value.Int(base + i), value.Int(i % 11)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	closed := make(chan struct{})
	go func() { db.Close(); close(closed) }()
	writers.Wait()
	<-closed

	// The executor is quiesced: nothing is pending or running, and new
	// submissions bounce.
	if db.async.Submit("x", func() {}) {
		t.Fatal("async executor accepted work after Close")
	}
	// Mutations after Close must not panic or schedule work.
	if _, err := rel.Insert([]value.Value{value.Int(999999), value.Int(1)}); err != nil {
		t.Fatalf("insert after Close: %v", err)
	}
	if ok, err := rel.Delete([]value.Value{value.Int(999999)}); err != nil || !ok {
		t.Fatal("delete after Close failed")
	}
	// Close is idempotent.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
