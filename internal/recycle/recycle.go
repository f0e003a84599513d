// Package recycle keeps the free lists an execution workspace lends its
// structures from. A List lends values of one type and takes them back
// all at once: the structures of one execution have one owner and fixed
// return points, so nothing is handed back piecemeal.
package recycle

import (
	"unsafe"

	"pascalr/internal/value"
)

// Poison makes every returned structure overwrite its contents with
// garbage (Word, Str, Value) instead of only clearing its pointers, so a
// read of returned memory yields wrong results or a panic rather than
// the stale, plausible contents. It is a variable so tests can switch
// it on; nothing else sets it.
var Poison bool

// Word is what a poisoned integer vector holds. As a packed reference
// it names relation 0xA5A5, which no database creates.
const Word int64 = -0x5A5A5A5A5A5A5A5B

// Str is what a poisoned string vector holds, and Value what a
// poisoned value vector holds.
const Str = "\x00returned"

var Value = value.String_(Str)

// TrimEvery, keepFactor, keepFloor and keepSpare bound the memory a
// workspace keeps. Every TrimEvery executions it trims: a vector whose
// capacity exceeds keepFactor times the most its structure used in
// those executions, plus keepFloor bytes, is dropped (Keep), and a List
// keeps at most keepFactor times as many free values as it lent at once
// in them, plus keepSpare (List.Trim). So after one large execution,
// smaller ones clear and hold its memory for at most TrimEvery
// executions, while executions of similar size, or plans that take
// turns on one workspace, reuse theirs: a bound per execution would
// drop and regrow a structure each time a small plan followed a large
// one.
const (
	TrimEvery  = 64
	keepFactor = 4
	keepFloor  = 64 << 10
	keepSpare  = 8
)

// Keep returns s when its capacity is within keepFactor times used
// elements plus keepFloor bytes, and nil otherwise: a vector much
// larger executions grew is given up to the collector rather than
// kept, and cleared, by every smaller one after them.
func Keep[E any](s []E, used int) []E {
	var zero E
	size := unsafe.Sizeof(zero)
	if uintptr(cap(s))*size > uintptr(keepFactor*used)*size+keepFloor {
		return nil
	}
	return s
}

// List lends values of type T and takes every lent value back at once.
// The zero List is empty and ready to use; it is not safe for
// concurrent use.
type List[T any] struct {
	lent, free []*T
	lends      int // Lends since the list last had nothing lent
	peak       int // the most such Lends since the last Trim
}

// Lend returns a value from the free list, or a new zero one when the
// list is empty. The caller resets what it gets.
func (l *List[T]) Lend() *T {
	var x *T
	if n := len(l.free); n > 0 {
		x = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
	} else {
		x = new(T)
	}
	l.lends++
	l.lent = append(l.lent, x)
	return x
}

// Return takes back every lent value except keep, which stays lent,
// calling scrub on each first. Values go back in reverse, so the next
// Lends hand them out in the order they were lent: a repeated plan
// meets the memory its structures had the last time.
func (l *List[T]) Return(keep *T, scrub func(*T)) {
	kept := false
	for i := len(l.lent) - 1; i >= 0; i-- {
		x := l.lent[i]
		l.lent[i] = nil
		if x == keep {
			kept = true
			continue
		}
		scrub(x)
		l.free = append(l.free, x)
	}
	l.lent = l.lent[:0]
	if kept {
		l.lent = append(l.lent, keep)
		return
	}
	l.peak = max(l.peak, l.lends)
	l.lends = 0
}

// Trim drops the free values beyond keepFactor times the most the list
// lent at once since the last Trim, plus keepSpare, the longest unused
// first, and calls trim on the rest. Call it when nothing is lent.
func (l *List[T]) Trim(trim func(*T)) {
	if extra := len(l.free) - (keepFactor*l.peak + keepSpare); extra > 0 {
		n := copy(l.free, l.free[extra:])
		clear(l.free[n:])
		l.free = l.free[:n]
	}
	for _, x := range l.free {
		trim(x)
	}
	l.peak = 0
}

// Resize returns s with length n, reusing its memory when it holds n
// values; the contents are not cleared.
func Resize[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// Fill overwrites s with x when Poison is set and with the zero value
// otherwise: the whole capacity, so nothing a returned vector ever held
// stays reachable through it.
func Fill[E any](s []E, x E) {
	s = s[:cap(s)]
	if !Poison {
		clear(s)
		return
	}
	for i := range s {
		s[i] = x
	}
}

// Scrub is Fill for vectors of plain words, which hold no pointers:
// they are overwritten only when Poison is set.
func Scrub[E any](s []E, x E) {
	if Poison {
		s = s[:cap(s)]
		for i := range s {
			s[i] = x
		}
	}
}
