// Package value implements the runtime values that flow through the
// PASCAL/R query processor: integers (PASCAL subranges), strings (packed
// character arrays), booleans, enumeration values, and references to
// relation elements (the paper's @rel[keyval] construct, a generalization
// of TIDs).
//
// All values of a kind are totally ordered, which lets the normalizer
// eliminate NOT by flipping comparison operators, and lets the collection
// phase implement the value-list refinements of section 4.4 of the paper
// (min/max for < and <=, singleton tests for = with ALL and <> with SOME).
package value

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"strings"
)

// Kind identifies the runtime type of a Value.
type Kind uint8

// The supported value kinds.
const (
	KindInvalid Kind = iota
	KindInt          // 64-bit integer (covers all PASCAL subranges)
	KindString       // packed character array, compared lexicographically
	KindBool         // false < true
	KindEnum         // enumeration; ordered by declaration ordinal
	KindRef          // reference to a relation element (@rel[key])
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "integer"
	case KindString:
		return "string"
	case KindBool:
		return "boolean"
	case KindEnum:
		return "enum"
	case KindRef:
		return "ref"
	default:
		return "invalid"
	}
}

// Value is a single immutable runtime value. The zero Value is invalid.
type Value struct {
	kind Kind
	i    int64  // integer value, bool (0/1), enum ordinal, or packed ref
	s    string // string value, or enum type name
}

// Int returns a new integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// String_ returns a new string value. (Named with a trailing underscore
// because Value.String is the fmt.Stringer method.)
func String_(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a new boolean value.
func Bool(v bool) Value {
	if v {
		return Value{kind: KindBool, i: 1}
	}
	return Value{kind: KindBool}
}

// Enum returns a value of the named enumeration type with the given
// declaration ordinal. Values of different enumeration types never
// compare equal and comparing them reports an error.
func Enum(typeName string, ord int) Value {
	return Value{kind: KindEnum, i: int64(ord), s: typeName}
}

// Ref returns a reference value identifying a relation element by the
// owning relation's catalog id, the element's storage slot, and the
// slot's generation (used to detect dangling references after deletion).
func Ref(rel, slot, gen int) Value {
	if rel < 0 || rel > 0xFFFF || slot < 0 || slot > 0x7FFFFFFF || gen < 0 || gen > 0xFFFF {
		panic(fmt.Sprintf("value: ref out of range rel=%d slot=%d gen=%d", rel, slot, gen))
	}
	return Value{kind: KindRef, i: int64(rel)<<48 | int64(gen)<<32 | int64(slot)}
}

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsValid reports whether the value has been initialized.
func (v Value) IsValid() bool { return v.kind != KindInvalid }

// AsInt returns the integer payload. It panics when the value is not an
// integer.
func (v Value) AsInt() int64 {
	v.mustBe(KindInt)
	return v.i
}

// AsString returns the string payload. It panics when the value is not a
// string.
func (v Value) AsString() string {
	v.mustBe(KindString)
	return v.s
}

// AsBool returns the boolean payload. It panics when the value is not a
// boolean.
func (v Value) AsBool() bool {
	v.mustBe(KindBool)
	return v.i != 0
}

// EnumOrd returns the declaration ordinal of an enumeration value. It
// panics when the value is not an enumeration.
func (v Value) EnumOrd() int {
	v.mustBe(KindEnum)
	return int(v.i)
}

// EnumType returns the enumeration type name of an enumeration value.
func (v Value) EnumType() string {
	v.mustBe(KindEnum)
	return v.s
}

// AsRef unpacks a reference value into (relation id, slot, generation).
// It panics when the value is not a reference.
func (v Value) AsRef() (rel, slot, gen int) {
	v.mustBe(KindRef)
	return int(v.i >> 48 & 0xFFFF), int(v.i & 0x7FFFFFFF), int(v.i >> 32 & 0xFFFF)
}

func (v Value) mustBe(k Kind) {
	if v.kind != k {
		panic(fmt.Sprintf("value: %s used as %s", v.kind, k))
	}
}

// String renders the value for display: integers in decimal, strings
// single-quoted, booleans as TRUE/FALSE, enums as type#ordinal (the
// schema layer renders enum labels), references as @rel:slot.
func (v Value) String() string {
	switch v.kind {
	case KindInt:
		return fmt.Sprintf("%d", v.i)
	case KindString:
		return "'" + v.s + "'"
	case KindBool:
		if v.i != 0 {
			return "TRUE"
		}
		return "FALSE"
	case KindEnum:
		return fmt.Sprintf("%s#%d", v.s, v.i)
	case KindRef:
		rel, slot, _ := v.AsRef()
		return fmt.Sprintf("@%d:%d", rel, slot)
	default:
		return "<invalid>"
	}
}

// Compare orders two values of the same kind: it returns a negative
// number, zero, or a positive number as a sorts before, equal to, or
// after b. Comparing values of different kinds, or enumeration values of
// different enumeration types, is an error (the calculus is many-sorted).
func Compare(a, b Value) (int, error) {
	if a.kind != b.kind {
		return 0, fmt.Errorf("value: cannot compare %s with %s", a.kind, b.kind)
	}
	switch a.kind {
	case KindInt, KindBool:
		return cmpInt64(a.i, b.i), nil
	case KindString:
		return strings.Compare(a.s, b.s), nil
	case KindEnum:
		if a.s != b.s {
			return 0, fmt.Errorf("value: cannot compare enum %s with enum %s", a.s, b.s)
		}
		return cmpInt64(a.i, b.i), nil
	case KindRef:
		return cmpInt64(a.i, b.i), nil
	default:
		return 0, fmt.Errorf("value: cannot compare invalid values")
	}
}

// MustCompare is Compare for callers that have already type-checked the
// operands; it panics on kind mismatch.
func MustCompare(a, b Value) int {
	c, err := Compare(a, b)
	if err != nil {
		panic(err)
	}
	return c
}

// Equal reports whether two values are identical (same kind, same
// payload). Unlike Compare it never errors: values of different kinds or
// enum types are simply unequal.
func Equal(a, b Value) bool {
	return a.kind == b.kind && a.i == b.i && a.s == b.s
}

// OrdKind reports whether k is an int-backed kind — integers, booleans,
// enumerations, references — whose values a typed column vector stores
// as raw Ord payloads. Only strings are excluded.
func OrdKind(k Kind) bool {
	switch k {
	case KindInt, KindBool, KindEnum, KindRef:
		return true
	}
	return false
}

// Ord returns the integer payload of an int-backed value: the number
// itself, a boolean as 0/1, an enumeration ordinal, or a packed
// reference — the raw representation typed column vectors store.
// Strings and invalid values panic.
func (v Value) Ord() int64 {
	if !OrdKind(v.kind) {
		panic(fmt.Sprintf("value: Ord on %s value", v.kind))
	}
	return v.i
}

// MakeOrd reconstructs an int-backed value from its Ord payload;
// enumType names the enumeration for KindEnum values and is ignored
// otherwise. It is the inverse of Ord for the columnar batch layer:
// reconstructed values are Equal to the originals.
func MakeOrd(k Kind, ord int64, enumType string) Value {
	switch k {
	case KindInt, KindBool, KindRef:
		return Value{kind: k, i: ord}
	case KindEnum:
		return Value{kind: KindEnum, i: ord, s: enumType}
	default:
		panic(fmt.Sprintf("value: MakeOrd on %s", k))
	}
}

// Hash returns a 64-bit hash of v under seed. Equal values hash equal,
// so a hash match is a candidate that value.Equal confirms.
func (v Value) Hash(seed maphash.Seed) uint64 {
	h := uint64(v.i)*0x9E3779B97F4A7C15 ^ uint64(v.kind)
	if v.s != "" {
		h ^= maphash.String(seed, v.s)
	}
	return h
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// AppendKey appends an equality-preserving encoding of v to dst. Two
// values have identical encodings iff Equal reports true; this backs the
// hash indexes and deduplication sets throughout the system.
func AppendKey(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindString, KindEnum:
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(v.s)))
		dst = append(dst, n[:]...)
		dst = append(dst, v.s...)
	}
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(v.i))
	return append(dst, n[:]...)
}

// EncodeKey encodes a tuple of values into a string usable as a Go map
// key. The encoding is equality-preserving and unambiguous.
func EncodeKey(vals []Value) string {
	dst := make([]byte, 0, 16*len(vals))
	for _, v := range vals {
		dst = AppendKey(dst, v)
	}
	return string(dst)
}
