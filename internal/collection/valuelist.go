package collection

import (
	"cmp"
	"fmt"
	"hash/maphash"
	"slices"

	"pascalr/internal/value"
)

// ValueList collects the distinct values of one component of the
// qualifying elements of a quantified variable's range — the structure
// strategy 4 builds instead of a complete index ("When vnrel is read,
// instead of a complete index only its value list is generated").
//
// A list is typed: its kind, and for enumerations the type name, are
// the component's, fixed at creation. An int-backed list (integers,
// booleans, enumerations, references) holds distinct ordinals, a string
// list distinct strings, each in insertion order and found through one
// open-addressing table. The bulk feeds take the raw words and strings
// of a batch's column vectors, so no value is boxed; Add, Has, Min and
// Max speak value.Value at the edges.
type ValueList struct {
	kind     value.Kind
	enumType string
	ords     []int64  // distinct ordinals in insertion order (int-backed kinds)
	strs     []string // distinct strings in insertion order (string kind)
	lo, hi   int      // entries holding the minimum and the maximum
	// table holds tag<<32 | entry+1 per occupied slot, 0 when empty; the
	// tag is the high half of the entry's hash and also picks its home
	// slot, so growing rehashes without the entries.
	table []uint64
	peak  int // the most entries held since a Workspace last trimmed it
}

// listSeed seeds the string lists' hash for the process.
var listSeed = maphash.MakeSeed()

// ordHash and strHash hash a list entry. They are variables so a test
// can force every entry onto one hash and exercise the confirmation of
// each tag match against the stored entry.
var (
	ordHash = defaultOrdHash
	strHash = defaultStrHash
)

func defaultOrdHash(o int64) uint64 {
	h := uint64(o) * 0x9E3779B97F4A7C15
	h ^= h >> 32
	h *= 0xFF51AFD7ED558CCD
	return h ^ h>>29
}

func defaultStrHash(s string) uint64 { return maphash.String(listSeed, s) }

// NewValueList creates an empty value list of one kind; enumType names
// the enumeration of a KindEnum list and is ignored otherwise.
func NewValueList(kind value.Kind, enumType string) *ValueList {
	if kind != value.KindEnum {
		enumType = ""
	}
	return &ValueList{kind: kind, enumType: enumType}
}

// Kind reports the kind of the list's values.
func (vl *ValueList) Kind() value.Kind { return vl.kind }

// Len returns the number of distinct values.
func (vl *ValueList) Len() int {
	if vl.kind == value.KindString {
		return len(vl.strs)
	}
	return len(vl.ords)
}

// Reserve makes room for n more distinct values, so that feeding a
// batch of n rows grows the list at most once.
func (vl *ValueList) Reserve(n int) {
	size := 16
	for size < 2*(vl.Len()+n) {
		size <<= 1
	}
	if size > len(vl.table) {
		vl.rehash(size)
	}
	if vl.kind == value.KindString {
		vl.strs = slices.Grow(vl.strs, n)
	} else {
		vl.ords = slices.Grow(vl.ords, n)
	}
}

// makeRoom grows the table before an insertion would fill half of it.
func (vl *ValueList) makeRoom() {
	if 2*(vl.Len()+1) > len(vl.table) {
		vl.rehash(max(16, 2*len(vl.table)))
	}
}

// rehash rebuilds the table at the given size.
func (vl *ValueList) rehash(size int) {
	old := vl.table
	vl.table = make([]uint64, size)
	mask := uint32(size - 1)
	for _, e := range old {
		if e == 0 {
			continue
		}
		p := uint32(e>>32) & mask
		for vl.table[p] != 0 {
			p = (p + 1) & mask
		}
		vl.table[p] = e
	}
}

// find returns the entry equal to x, whose hash tag is tag, or -1 and
// the empty slot where x belongs. The table must not be empty.
func find[T comparable](table []uint64, entries []T, x T, tag uint32) (int, uint32) {
	mask := uint32(len(table) - 1)
	p := tag & mask
	for ; table[p] != 0; p = (p + 1) & mask {
		e := table[p]
		if k := int(uint32(e)) - 1; uint32(e>>32) == tag && entries[k] == x {
			return k, p
		}
	}
	return -1, p
}

// insert adds x, whose hash tag is tag, to the list's entries unless it
// is there, maintaining the min/max, and returns the entries.
func insert[T cmp.Ordered](vl *ValueList, entries []T, x T, tag uint32) []T {
	vl.makeRoom()
	k, p := find(vl.table, entries, x, tag)
	if k >= 0 {
		return entries
	}
	k = len(entries)
	vl.table[p] = uint64(tag)<<32 | uint64(k+1)
	entries = append(entries, x)
	if x < entries[vl.lo] {
		vl.lo = k
	}
	if x > entries[vl.hi] {
		vl.hi = k
	}
	return entries
}

// contains reports whether the list's entries hold x.
func contains[T comparable](vl *ValueList, entries []T, x T, tag uint32) bool {
	if len(vl.table) == 0 {
		return false
	}
	k, _ := find(vl.table, entries, x, tag)
	return k >= 0
}

// AddOrd inserts the ordinal of a value of an int-backed list's kind.
func (vl *ValueList) AddOrd(o int64) { vl.ords = insert(vl, vl.ords, o, uint32(ordHash(o)>>32)) }

// AddString inserts a string into a string list.
func (vl *ValueList) AddString(s string) { vl.strs = insert(vl, vl.strs, s, uint32(strHash(s)>>32)) }

// HasOrd reports whether an int-backed list holds ordinal o.
func (vl *ValueList) HasOrd(o int64) bool { return contains(vl, vl.ords, o, uint32(ordHash(o)>>32)) }

// HasString reports whether a string list holds s.
func (vl *ValueList) HasString(s string) bool {
	return contains(vl, vl.strs, s, uint32(strHash(s)>>32))
}

// Add inserts one value, which must be of the list's kind (and
// enumeration type); any other value panics.
func (vl *ValueList) Add(v value.Value) {
	if !vl.holds(v) {
		panic(fmt.Sprintf("collection: %s value added to a %s value list", v.Kind(), vl.kind))
	}
	if vl.kind == value.KindString {
		vl.AddString(v.AsString())
	} else {
		vl.AddOrd(v.Ord())
	}
}

// holds reports whether v is of the list's kind and enumeration type.
func (vl *ValueList) holds(v value.Value) bool {
	if v.Kind() != vl.kind {
		return false
	}
	return vl.kind != value.KindEnum || v.EnumType() == vl.enumType
}

// Has reports membership of a value; a value of another kind or
// enumeration type is never a member.
func (vl *ValueList) Has(v value.Value) bool {
	switch {
	case !vl.holds(v):
		return false
	case vl.kind == value.KindString:
		return vl.HasString(v.AsString())
	default:
		return vl.HasOrd(v.Ord())
	}
}

// at returns entry k as a value.
func (vl *ValueList) at(k int) value.Value {
	if vl.kind == value.KindString {
		return value.String_(vl.strs[k])
	}
	return value.MakeOrd(vl.kind, vl.ords[k], vl.enumType)
}

// Min and Max return the extreme values; they are invalid when empty.
func (vl *ValueList) Min() value.Value {
	if vl.Len() == 0 {
		return value.Value{}
	}
	return vl.at(vl.lo)
}

// Max returns the largest value.
func (vl *ValueList) Max() value.Value {
	if vl.Len() == 0 {
		return value.Value{}
	}
	return vl.at(vl.hi)
}

// QuantPred is a derived monadic predicate over one component value x,
// deciding "SOME v in list: x op v" or "ALL v in list: x op v" — the
// quantifier evaluation strategy 4 moves into the collection phase.
// MakeQuantPred reduces it to one of three forms, which the engine
// evaluates in bulk over a column:
//
//   - a bound (Set nil, Bound valid): x Op Bound;
//   - a set (Set non-nil): x in Set when Op is =, x not in Set when Op
//     is <>;
//   - a constant (Set nil, Bound invalid): Const, whatever x is.
type QuantPred struct {
	Op    value.CmpOp
	Bound value.Value
	Set   *ValueList
	Const bool
}

// MakeQuantPred builds the most compact predicate for the given
// operator and quantifier per section 4.4:
//
//   - < and <= need only the maximum (SOME) or minimum (ALL) value;
//     > and >= symmetrically the minimum (SOME) or maximum (ALL);
//   - = with ALL needs at most one value: with two or more distinct
//     values it is constantly false;
//   - <> with SOME needs at most one value: with two or more distinct
//     values it is constantly true;
//   - = with SOME and <> with ALL need the full distinct set.
//
// The list must be non-empty: quantifiers over empty ranges are folded
// away by the Lemma 1 adaptation before strategy 4 applies.
func MakeQuantPred(vl *ValueList, op value.CmpOp, all bool) (QuantPred, error) {
	if vl.Len() == 0 {
		return QuantPred{}, fmt.Errorf("collection: quantifier predicate over empty value list (fold empty ranges first)")
	}
	switch op {
	case value.OpLt, value.OpLe:
		// x op SOME v  <=>  x op max;   x op ALL v  <=>  x op min.
		bound := vl.Max()
		if all {
			bound = vl.Min()
		}
		return QuantPred{Op: op, Bound: bound}, nil
	case value.OpGt, value.OpGe:
		bound := vl.Min()
		if all {
			bound = vl.Max()
		}
		return QuantPred{Op: op, Bound: bound}, nil
	case value.OpEq, value.OpNe:
		// =SOME and <>ALL: (non-)membership. =ALL and <>SOME: one
		// value decides by comparison, two or more decide alone.
		if all == (op == value.OpNe) {
			return QuantPred{Op: op, Set: vl}, nil
		}
		if vl.Len() > 1 {
			return QuantPred{Const: op == value.OpNe}, nil
		}
		return QuantPred{Op: op, Bound: vl.Min()}, nil
	default:
		return QuantPred{}, fmt.Errorf("collection: unknown operator %v", op)
	}
}

// Test decides the predicate for one value — the scalar reference the
// engine's bulk forms count and decide like.
func (p QuantPred) Test(x value.Value) bool {
	switch {
	case p.Set != nil:
		return p.Set.Has(x) == (p.Op == value.OpEq)
	case p.Bound.IsValid():
		ok, err := p.Op.Apply(x, p.Bound)
		return err == nil && ok
	default:
		return p.Const
	}
}

// Size reports how many values the predicate stores — the paper's
// section 4.4 storage measure.
func (p QuantPred) Size() int {
	switch {
	case p.Set != nil:
		return p.Set.Len()
	case p.Bound.IsValid():
		return 1
	default:
		return 0
	}
}
