package recycle

import "testing"

// TestListReturnKeepsOrderAndKeep: Return takes back every lent value
// but keep, scrubbing each; the next Lends hand them out in the order
// they were first lent; keep goes back at the next Return.
func TestListReturnKeepsOrderAndKeep(t *testing.T) {
	var l List[int]
	a, b, c := l.Lend(), l.Lend(), l.Lend()
	*a, *b, *c = 1, 2, 3
	l.Return(b, func(x *int) { *x = -*x })
	if *a != -1 || *b != 2 || *c != -3 {
		t.Fatalf("after Return: %d %d %d, want -1 2 -3", *a, *b, *c)
	}
	if x, y := l.Lend(), l.Lend(); x != a || y != c {
		t.Fatal("the next Lends did not hand out a, then c")
	}
	if z := l.Lend(); z == a || z == b || z == c {
		t.Fatal("an empty free list handed out a lent value")
	}
	l.Return(nil, func(*int) {})
	if len(l.lent) != 0 || len(l.free) != 4 {
		t.Fatalf("after Return(nil): %d lent, %d free, want 0 and 4", len(l.lent), len(l.free))
	}
}

// TestFillAndScrub: without Poison, Fill clears a vector's whole
// capacity and Scrub leaves words alone; with it, both overwrite the
// whole capacity.
func TestFillAndScrub(t *testing.T) {
	strs := append(make([]string, 0, 4), "a", "b")[:1]
	words := append(make([]int64, 0, 4), 7, 8)[:1]
	Fill(strs, Str)
	Scrub(words, Word)
	if s := strs[:cap(strs)]; s[0] != "" || s[1] != "" {
		t.Fatalf("Fill left %q", s)
	}
	if w := words[:cap(words)]; w[0] != 7 || w[1] != 8 {
		t.Fatalf("Scrub changed %v without Poison", w)
	}
	Poison = true
	defer func() { Poison = false }()
	Fill(strs, Str)
	Scrub(words, Word)
	for _, s := range strs[:cap(strs)] {
		if s != Str {
			t.Fatalf("poisoned Fill left %q", s)
		}
	}
	for _, w := range words[:cap(words)] {
		if w != Word {
			t.Fatalf("poisoned Scrub left %d", w)
		}
	}
}

// TestKeep: a vector is kept while its capacity is within keepFactor
// times its use plus keepFloor bytes, and dropped beyond.
func TestKeep(t *testing.T) {
	floor := keepFloor / 8 // int64 elements in keepFloor bytes
	for _, c := range []struct {
		cap, used int
		kept      bool
	}{
		{0, 0, true},
		{floor, 0, true},
		{floor + 1, 0, false},
		{keepFactor*1000 + floor, 1000, true},
		{keepFactor*1000 + floor + 1, 1000, false},
		{1 << 20, 1 << 20, true},
	} {
		s := make([]int64, 0, c.cap)
		if got := Keep(s, c.used) != nil; got != c.kept {
			t.Errorf("Keep(cap %d, used %d) kept %v, want %v", c.cap, c.used, got, c.kept)
		}
	}
}

// TestListTrim: Trim keeps at most keepFactor times the most values
// lent at once since the last Trim, plus keepSpare — the ones lent most
// recently — and hands each kept one to its trim function.
func TestListTrim(t *testing.T) {
	var l List[int]
	for range 100 {
		l.Lend()
	}
	l.Return(nil, func(*int) {})
	l.Trim(func(*int) {})
	if len(l.free) != 100 {
		t.Fatalf("%d free after lending 100 at once, want 100", len(l.free))
	}
	for range 3 {
		k := l.Lend()
		l.Lend()
		l.Return(k, func(*int) {}) // k stays lent: the round goes on
		l.Lend()
		l.Return(nil, func(*int) {})
	}
	trimmed := 0
	l.Trim(func(*int) { trimmed++ })
	if want := 3*keepFactor + keepSpare; len(l.free) != want || trimmed != want {
		t.Fatalf("%d free, %d trimmed after lending at most three at a time, want %d", len(l.free), trimmed, want)
	}
	a := l.Lend()
	l.Return(nil, func(*int) {})
	l.Trim(func(*int) {})
	if want := keepFactor + keepSpare; len(l.free) != want {
		t.Fatalf("%d free after lending one at a time, want %d", len(l.free), want)
	}
	if l.Lend() != a {
		t.Fatal("the value lent last was dropped")
	}
}
