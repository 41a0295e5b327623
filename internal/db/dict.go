package db

import (
	"cmp"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Dict is an append-only string interner: every distinct string stored
// in a columnar instance is assigned a dense uint32 code, and string
// columns hold codes instead of string headers. Two facts of one
// instance carry equal strings iff their codes are equal, so the hot
// paths (key grouping, join probes, partition indexes) compare and hash
// 4-byte codes instead of walking string bytes.
//
// The strings themselves are one byte pool plus cumulative offsets
// (string c is bytes[offs[c]:offs[c+1]]), and the string → code
// direction is a flat open-addressing table of codes over the pool: no
// per-string header, nothing for the garbage collector to scan, and the
// same three arrays a snapshot stores, so a snapshot load aliases them
// in place instead of rebuilding anything per string. The table hash
// (dictHash) is fixed, not seeded per process, because it is part of
// the snapshot format.
//
// A Dict is owned by exactly one Instance and shared by all of its
// string columns. Like the instance itself it is built single-threaded
// (Insert is not safe for concurrent use) and read-only thereafter;
// concurrent reads after the build are safe without locking.
type Dict struct {
	offs  []uint64 // len = Len()+1, offs[0] = 0
	bytes []byte
	// table has a power-of-two length of at least 2·(Len()+1); a slot
	// holds code+1, 0 marks it empty. Collisions probe linearly.
	table []uint32
	// mapped marks arrays aliased from a snapshot: Intern copies them
	// before its first write.
	mapped bool

	// ranks is the rank table of the strings, built by Ranks on first
	// use (under rankMu) and replaced once the dictionary has grown.
	rankMu sync.Mutex
	ranks  atomic.Pointer[Ranks]
}

// NewDict creates an empty interner.
func NewDict() *Dict { return &Dict{offs: []uint64{0}, table: make([]uint32, minDictTable)} }

const minDictTable = 16

// Intern returns the code for s, assigning the next dense code on first
// sight.
func (d *Dict) Intern(s string) uint32 {
	i, ok := d.slot(s)
	if ok {
		return d.table[i] - 1
	}
	// Keep the table at least twice the count after this string, plus
	// one: a loaded table is checked against the same bound. A mapped
	// table is never written (the pool's aliased slices are capped, so
	// the appends below copy them).
	if d.mapped || 2*(d.Len()+2) > len(d.table) {
		d.rebuildTable(dictTableLen(d.Len() + 1))
		d.mapped = false
		if i, ok = d.slot(s); ok {
			return d.table[i] - 1 // a corrupt mapped table missed it
		}
	}
	c := uint32(d.Len())
	// Grow the pool by doubling: append's gentler growth for large
	// slices would copy it several times over.
	if len(d.bytes)+len(s) > cap(d.bytes) {
		d.bytes = slices.Grow(d.bytes, max(len(s), len(d.bytes)))
	}
	if len(d.offs) == cap(d.offs) {
		d.offs = slices.Grow(d.offs, len(d.offs))
	}
	d.bytes = append(d.bytes, s...)
	d.offs = append(d.offs, uint64(len(d.bytes)))
	d.table[i] = c + 1
	return c
}

// Lookup returns the code for s without interning. ok=false means no
// fact in the owning instance stores s, which probe sites use to skip
// the hash index entirely.
func (d *Dict) Lookup(s string) (uint32, bool) {
	i, ok := d.slot(s)
	if !ok {
		return 0, false
	}
	return d.table[i] - 1, true
}

// String returns the string behind a code, aliasing the pool. Offsets
// are clamped to the pool, so a corrupt snapshot section yields a wrong
// string, never a panic.
func (d *Dict) String(code uint32) string {
	hi := min(d.offs[code+1], uint64(len(d.bytes)))
	lo := min(d.offs[code], hi)
	if lo == hi {
		return ""
	}
	return unsafe.String(&d.bytes[lo], int(hi-lo))
}

// Len returns the number of distinct interned strings.
func (d *Dict) Len() int { return len(d.offs) - 1 }

// slot returns the table slot holding s's code, or the empty slot where
// it belongs (-1 if a full sweep finds neither, which only a corrupt
// loaded table can cause). Codes past the pool read as a mismatch.
func (d *Dict) slot(s string) (int, bool) {
	mask := len(d.table) - 1
	i := int(dictHash(s)) & mask
	for range d.table {
		c := d.table[i]
		if c == 0 {
			return i, false
		}
		if int(c) <= d.Len() && d.String(c-1) == s {
			return i, true
		}
		i = (i + 1) & mask
	}
	return -1, false
}

// dictTableLen is the table length for n strings: the smallest power of
// two of at least 2·(n+1), and at least minDictTable.
func dictTableLen(n int) int {
	return max(minDictTable, 1<<tableBits(n+1))
}

// rebuildTable replaces the table with a fresh one of length size (a
// power of two) holding every code of the pool, in code order: the
// table Intern grew to that length, slot for slot.
func (d *Dict) rebuildTable(size int) {
	d.table = make([]uint32, size)
	// The pool holds distinct strings, so each one takes the first free
	// slot of its probe sequence without a string comparison.
	mask := size - 1
	for c := 0; c < d.Len(); c++ {
		i := int(dictHash(d.String(uint32(c)))) & mask
		for d.table[i] != 0 {
			i = (i + 1) & mask
		}
		d.table[i] = uint32(c) + 1
	}
}

// dictHash is the dictionary's table hash, a wyhash-style mix over
// little-endian 8-byte words (1–3 byte tails read first, middle and
// last byte; 4–8 byte tails the first and last four bytes). It is
// fixed: snapshots store tables laid out by it.
func dictHash(s string) uint64 {
	n := uint64(len(s))
	h := n ^ mixK1
	for len(s) > 8 {
		h = mix64(h^le64(s), mixK2)
		s = s[8:]
	}
	var t uint64
	switch {
	case len(s) >= 4:
		t = le32(s)<<32 | le32(s[len(s)-4:])
	case len(s) > 0:
		t = uint64(s[0])<<16 | uint64(s[len(s)>>1])<<8 | uint64(s[len(s)-1])
	}
	return mix64(h^t, mixK1^n)
}

// le64 and le32 read the first 8 and 4 bytes of s little-endian (the
// compiler merges the byte loads into one).
func le64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

func le32(s string) uint64 {
	_ = s[3]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24
}

// mix64 folds the 128-bit product of a and b into 64 bits.
func mix64(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
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
	if r := d.ranks.Load(); r != nil && len(r.rank) == d.Len() {
		return r
	}
	d.rankMu.Lock()
	defer d.rankMu.Unlock()
	if r := d.ranks.Load(); r != nil && len(r.rank) == d.Len() {
		return r
	}
	r := &Ranks{d: d, rank: make([]uint32, d.Len()), order: make([]uint32, d.Len())}
	for c := range r.order {
		r.order[c] = uint32(c)
	}
	slices.SortFunc(r.order, func(a, b uint32) int { return strings.Compare(d.String(a), d.String(b)) })
	for i, c := range r.order {
		r.rank[c] = 2*uint32(i) + 1
	}
	d.ranks.Store(r)
	return r
}

// Of returns the rank of s: odd for a string the table holds, even for
// one it does not.
func (r *Ranks) Of(s string) uint32 {
	i, found := slices.BinarySearchFunc(r.order, s, func(c uint32, s string) int { return strings.Compare(r.d.String(c), s) })
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
	return strings.Compare(r.d.String(uint32(a.bits)), r.d.String(uint32(b.bits)))
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
	return strings.Compare(r.d.String(uint32(a.bits)), s)
}
