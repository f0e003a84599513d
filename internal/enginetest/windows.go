package enginetest

import "sort"

// Window is one execution a reader ran beside a concurrent writer: the
// query it ran (an index into the caller's queries), a label naming its
// configuration, the database content versions read before it started
// (Lo) and after it ended (Hi), and its answer as a RelKey.
type Window struct {
	Query  int
	Label  string
	Lo, Hi uint64
	Key    string
}

// WindowStates returns the writer states a window may have read. State
// s is the contents after the writer's first s commits, at versions[s];
// a window may have read the last state at or before its Lo through the
// last at or before its Hi, since a commit that bumps the version
// several times is visible only once it completes.
func WindowStates(versions []uint64, w Window) (first, last int) {
	state := func(v uint64) int {
		return sort.Search(len(versions), func(i int) bool { return versions[i] > v }) - 1
	}
	return state(w.Lo), state(w.Hi)
}

// WrongWindows returns the windows whose answer is want(query, s) at no
// state s they may have read: the version-window oracle's verdict.
func WrongWindows(versions []uint64, windows []Window, want func(query, state int) string) []Window {
	var wrong []Window
	for _, w := range windows {
		first, last := WindowStates(versions, w)
		ok := false
		for s := first; s <= last && !ok; s++ {
			ok = want(w.Query, s) == w.Key
		}
		if !ok {
			wrong = append(wrong, w)
		}
	}
	return wrong
}
