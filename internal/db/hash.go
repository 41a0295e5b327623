package db

import "math"

// Streaming 64-bit hashes. The front end (internal/cq, internal/constraints,
// internal/core) keys its hot maps — witness-bag grouping, violation
// dedup, fact-set dedup — and the partition kernel (partition.go) its
// table by these hashes instead of the materialized strings Tuple.Key
// builds, trading the allocation per probe for a cheap integer fold.
// A cell is one word, folded with one 64×64→128-bit multiply (mix64,
// the mix of dictHash). Hashes are not injective: every consumer
// verifies candidates with the Equal* predicates below, so a collision
// costs a comparison, never correctness.

// HashSeed is the initial accumulator for the streaming hash helpers
// (the FNV-1a offset basis; the snapshot's data version starts there).
const HashSeed uint64 = 0xcbf29ce484222325

// mixK1 and mixK2 are the multipliers of dictHash and hashWord.
const mixK1, mixK2 = 0xa0761d6478bd642f, 0xe7037ed1a0b428db

// hashWord folds the payload word v of a value of kind k into h. The
// kind perturbs the multiplier, so equal payloads of different kinds
// (NULL and Int(0), Int(1) and the FLOAT whose bits are 1) part.
func hashWord(h uint64, k Kind, v uint64) uint64 {
	return mix64(h^v, mixK2^uint64(k)<<32)
}

// hashByte is one byte-wise FNV-1a round. Only the snapshot's data
// version uses it: the version is stored in the file, so its hash is
// part of the format.
func hashByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * 0x100000001b3 }

// HashFactSet folds a fact-ID slice into a 64-bit key. Callers must
// pass the IDs sorted ascending (witness fact sets and violations are
// maintained that way) so permutations of one set key identically.
func HashFactSet(ids []FactID) uint64 {
	h := HashSeed
	for _, f := range ids {
		h = hashWord(h, KindInt, uint64(uint32(f)))
	}
	return h
}

// HashExact folds the value into h, distinguishing exactly what
// EqualExact distinguishes: the kind and the raw payload. In particular
// Int(1) and Float(1) hash differently (they are Compare-equal but not
// key-equal), matching the kind-tagged encoding of Tuple.Key. A string
// folds its dictHash.
func (v Value) HashExact(h uint64) uint64 {
	switch v.kind {
	case KindInt:
		return hashWord(h, KindInt, uint64(v.i))
	case KindFloat:
		return hashWord(h, KindFloat, math.Float64bits(v.f))
	case KindString:
		return hashWord(h, KindString, dictHash(v.s))
	default: // NULL: the kind is the payload
		return hashWord(h, KindNull, 0)
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
