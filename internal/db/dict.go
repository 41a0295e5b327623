package db

import (
	"cmp"
	"hash/maphash"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Dict is an append-only string interner: every distinct string stored
// in a columnar instance is assigned a dense uint32 code, and string
// columns hold codes instead of string headers. Two facts of one
// instance carry equal strings iff their codes are equal, so the hot
// paths (key grouping, join probes, partition indexes) compare and hash
// 4-byte codes instead of walking string bytes.
//
// The string → code direction is a flat open-addressing table of codes
// over the string pool, not a map: it holds no pointers for the garbage
// collector to scan, and a snapshot load rebuilds it with one pass of
// hashing into a single allocation.
//
// A Dict is owned by exactly one Instance and shared by all of its
// string columns. Like the instance itself it is built single-threaded
// (Insert is not safe for concurrent use) and read-only thereafter;
// concurrent reads after the build are safe without locking.
type Dict struct {
	strs []string
	// table has a power-of-two length and is at most half full; a slot
	// holds code+1, 0 marks it empty. Collisions probe linearly.
	table []uint32

	// ranks is the rank table of the strings, built by Ranks on first
	// use (under rankMu) and replaced once the dictionary has grown.
	rankMu sync.Mutex
	ranks  atomic.Pointer[Ranks]
}

// dictSeed seeds the table hash. Tables are never persisted, so a
// per-process seed is enough.
var dictSeed = maphash.MakeSeed()

// NewDict creates an empty interner.
func NewDict() *Dict { return &Dict{} }

// Intern returns the code for s, assigning the next dense code on first
// sight.
func (d *Dict) Intern(s string) uint32 {
	if 2*(len(d.strs)+1) > len(d.table) {
		d.rebuildTable()
	}
	i, ok := d.slot(s)
	if ok {
		return d.table[i] - 1
	}
	c := uint32(len(d.strs))
	d.strs = append(d.strs, s)
	d.table[i] = c + 1
	return c
}

// Lookup returns the code for s without interning. ok=false means no
// fact in the owning instance stores s, which probe sites use to skip
// the hash index entirely.
func (d *Dict) Lookup(s string) (uint32, bool) {
	if len(d.table) == 0 {
		return 0, false
	}
	i, ok := d.slot(s)
	return d.table[i] - 1, ok
}

// String returns the string behind a code.
func (d *Dict) String(code uint32) string { return d.strs[code] }

// Len returns the number of distinct interned strings.
func (d *Dict) Len() int { return len(d.strs) }

// slot returns the table slot holding s's code, or the empty slot where
// it belongs.
func (d *Dict) slot(s string) (int, bool) {
	mask := len(d.table) - 1
	i := int(maphash.String(dictSeed, s)) & mask
	for {
		c := d.table[i]
		if c == 0 {
			return i, false
		}
		if d.strs[c-1] == s {
			return i, true
		}
		i = (i + 1) & mask
	}
}

// rebuildTable sizes the table for one more string than the pool holds
// (a power of two, so a growing table at least doubles) and re-inserts
// the pool. Intern calls it to grow; a snapshot load, which serializes
// only the pool, calls it once.
func (d *Dict) rebuildTable() {
	n := 16
	for n < 2*(len(d.strs)+1) {
		n *= 2
	}
	d.table = make([]uint32, n)
	// The pool holds distinct strings, so each one takes the first free
	// slot of its probe sequence without a string comparison.
	mask := n - 1
	for c, s := range d.strs {
		i := int(maphash.String(dictSeed, s)) & mask
		for d.table[i] != 0 {
			i = (i + 1) & mask
		}
		d.table[i] = uint32(c) + 1
	}
}

// Ranks is an order-preserving rank table over the strings a Dict held
// when the table was built: the i-th smallest of them in byte order
// ranks 2i+1, and a string the table does not hold ranks 2i when i of
// its strings sort below it, between its neighbours. Comparing two
// ranks is comparing the strings, so an ordered comparison on a string
// column costs an integer compare instead of a walk over bytes. A code
// interned after the build has no rank; the comparisons fall back to
// the bytes for it, so a table never answers with a stale rank.
type Ranks struct {
	d     *Dict
	rank  []uint32 // code → rank, for the codes the table holds
	order []uint32 // those codes, in byte order of their strings
}

// Ranks returns the rank table of the dictionary's current strings,
// building it on first use and again after the dictionary has grown.
// It is safe for concurrent use by readers of a built dictionary. Only
// ordered string comparisons need it: equality compares codes.
func (d *Dict) Ranks() *Ranks {
	if r := d.ranks.Load(); r != nil && len(r.rank) == len(d.strs) {
		return r
	}
	d.rankMu.Lock()
	defer d.rankMu.Unlock()
	if r := d.ranks.Load(); r != nil && len(r.rank) == len(d.strs) {
		return r
	}
	r := &Ranks{d: d, rank: make([]uint32, len(d.strs)), order: make([]uint32, len(d.strs))}
	for c := range r.order {
		r.order[c] = uint32(c)
	}
	slices.SortFunc(r.order, func(a, b uint32) int { return strings.Compare(d.strs[a], d.strs[b]) })
	for i, c := range r.order {
		r.rank[c] = 2*uint32(i) + 1
	}
	d.ranks.Store(r)
	return r
}

// Of returns the rank of s: odd for a string the table holds, even for
// one it does not.
func (r *Ranks) Of(s string) uint32 {
	i, found := slices.BinarySearchFunc(r.order, s, func(c uint32, s string) int { return strings.Compare(r.d.strs[c], s) })
	if found {
		return 2*uint32(i) + 1
	}
	return 2 * uint32(i)
}

// CompareCells is Dict.CompareCells with two strings compared by rank.
func (r *Ranks) CompareCells(a, b Cell) int {
	if a.kind != KindString || b.kind != KindString {
		return r.d.CompareCells(a, b)
	}
	if n := uint64(len(r.rank)); a.bits < n && b.bits < n {
		return cmp.Compare(r.rank[a.bits], r.rank[b.bits])
	}
	return strings.Compare(r.d.strs[a.bits], r.d.strs[b.bits])
}

// CompareString is Value.Compare of the value cell a encodes with the
// string s of rank rs (Of): NULL and numbers sort below every string.
func (r *Ranks) CompareString(a Cell, s string, rs uint32) int {
	if a.kind != KindString {
		return -1
	}
	if a.bits < uint64(len(r.rank)) {
		return cmp.Compare(r.rank[a.bits], rs)
	}
	return strings.Compare(r.d.strs[a.bits], s)
}
