package db

import "math"

// 64-bit FNV-1a. The front end (internal/cq, internal/constraints) keys
// its hot maps — join indexes, witness-bag grouping, violation dedup,
// key-equal grouping — by these hashes instead of the materialized
// strings Tuple.Key builds, trading the allocation per probe for a
// cheap integer fold. Hashes are not injective: every consumer keeps
// bucket lists and verifies candidates with the Equal* predicates
// below, so a collision costs a comparison, never correctness.

// HashSeed is the initial accumulator for the streaming hash helpers
// (the FNV-1a offset basis).
const HashSeed uint64 = 0xcbf29ce484222325

const fnvPrime64 = 0x100000001b3

func hashByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func hashUint64(h uint64, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = hashByte(h, byte(v))
		v >>= 8
	}
	return h
}

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = hashByte(h, s[i])
	}
	// Terminator, mirroring the 0x1f separator of Tuple.Key: without it
	// adjacent strings could merge ("ab","c" vs "a","bc").
	return hashByte(h, 0x1f)
}

// HashFactSet folds a fact-ID slice into a 64-bit key. Callers must
// pass the IDs sorted ascending (witness fact sets and violations are
// maintained that way) so permutations of one set key identically.
func HashFactSet(ids []FactID) uint64 {
	h := HashSeed
	for _, f := range ids {
		h = hashUint64(h, uint64(uint32(f)))
	}
	return h
}

// HashExact folds the value into h, distinguishing exactly what
// EqualExact distinguishes: the kind and the raw payload. In particular
// Int(1) and Float(1) hash differently (they are Compare-equal but not
// key-equal), matching the kind-tagged encoding of Tuple.Key.
func (v Value) HashExact(h uint64) uint64 {
	h = hashByte(h, byte(v.kind))
	switch v.kind {
	case KindInt:
		return hashUint64(h, uint64(v.i))
	case KindFloat:
		return hashUint64(h, math.Float64bits(v.f))
	case KindString:
		return hashString(h, v.s)
	default: // NULL: the kind tag is the payload
		return h
	}
}

// EqualExact reports kind-and-payload identity: the equivalence that
// Tuple.Key's injective encoding induces, stricter than Equal (which
// compares INT and FLOAT numerically). Floats compare by bit pattern,
// so -0.0 ≠ 0.0 here, exactly as their Key renderings differ.
func (v Value) EqualExact(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindInt:
		return v.i == o.i
	case KindFloat:
		return math.Float64bits(v.f) == math.Float64bits(o.f)
	case KindString:
		return v.s == o.s
	default:
		return true
	}
}

// HashExact folds every position of the tuple into h.
func (t Tuple) HashExact(h uint64) uint64 {
	for _, v := range t {
		h = v.HashExact(h)
	}
	return h
}

// EqualExact reports position-wise EqualExact of equally long tuples.
func (t Tuple) EqualExact(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].EqualExact(o[i]) {
			return false
		}
	}
	return true
}
