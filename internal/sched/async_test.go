package sched

import (
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
	started := make(chan struct{})
	release := make(chan struct{})
	if !a.Submit("block", func() { close(started); <-release }) {
		t.Fatal("first submit rejected")
	}
	<-started
	// With the only worker busy, "k" is queued: resubmissions are
	// dropped.
	var runs atomic.Int32
	if !a.Submit("k", func() { runs.Add(1) }) {
		t.Fatal("submit of a new key rejected")
	}
	for i := 0; i < 5; i++ {
		if a.Submit("k", func() { t.Error("duplicate ran") }) {
			t.Fatal("duplicate submit accepted while queued")
		}
	}
	close(release)
	a.Wait()
	if got := runs.Load(); got != 1 {
		t.Fatalf("job ran %d times, want 1", got)
	}
	// After completion the key is free again.
	if !a.Submit("k", func() {}) {
		t.Fatal("submit after completion rejected")
	}
	a.Wait()
}

// TestAsyncRerunsKeySubmittedWhileRunning: a key submitted while it
// runs runs once more after the current run, never concurrently with
// itself, however many workers are idle and however often it is
// resubmitted.
func TestAsyncRerunsKeySubmittedWhileRunning(t *testing.T) {
	a := NewAsync(4)
	var active, runs atomic.Int32
	started := make(chan struct{}, 2) // one send per run
	release := make(chan struct{})
	job := func() {
		if active.Add(1) != 1 {
			t.Error("k ran concurrently with itself")
		}
		started <- struct{}{}
		<-release
		runs.Add(1)
		active.Add(-1)
	}
	if !a.Submit("k", job) {
		t.Fatal("first submit rejected")
	}
	<-started
	if !a.Submit("k", job) {
		t.Fatal("submit while running rejected: the rerun would be lost")
	}
	for i := 0; i < 5; i++ {
		if a.Submit("k", func() { t.Error("third run of k") }) {
			t.Fatal("second rerun accepted: a key is queued at most once")
		}
	}
	close(release)
	<-started
	a.Wait()
	if got := runs.Load(); got != 2 {
		t.Fatalf("k ran %d times, want 2", got)
	}
}
