package sched

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestAsyncRunsSubmittedJobs(t *testing.T) {
	a := NewAsync(2)
	var n atomic.Int32
	for i := 0; i < 20; i++ {
		key := string(rune('a' + i))
		if !a.Submit(key, func() { n.Add(1) }) {
			t.Fatalf("submit %q rejected", key)
		}
	}
	a.Wait()
	if got := n.Load(); got != 20 {
		t.Fatalf("ran %d jobs, want 20", got)
	}
}

func TestAsyncSingleFlightPerKey(t *testing.T) {
	a := NewAsync(1)
	var mu sync.Mutex
	started := make(chan struct{})
	release := make(chan struct{})
	runs := 0
	ok := a.Submit("k", func() {
		close(started)
		<-release
		mu.Lock()
		runs++
		mu.Unlock()
	})
	if !ok {
		t.Fatal("first submit rejected")
	}
	<-started
	// While "k" is running, resubmissions are dropped.
	for i := 0; i < 5; i++ {
		if a.Submit("k", func() { t.Error("duplicate ran") }) {
			t.Fatal("duplicate submit accepted while running")
		}
	}
	close(release)
	a.Wait()
	mu.Lock()
	defer mu.Unlock()
	if runs != 1 {
		t.Fatalf("job ran %d times, want 1", runs)
	}
	// After completion the key is free again.
	if !a.Submit("k", func() {}) {
		t.Fatal("submit after completion rejected")
	}
	a.Wait()
}
