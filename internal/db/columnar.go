package db

import "math"

// Columnar backend. Facts of one relation live in per-attribute column
// arenas instead of []Value tuples:
//
//	INT    attribute → ints  []int64  (+ nulls bitmap)
//	FLOAT  attribute → raw   []uint64 (+ nulls, intRows bitmaps)
//	STRING attribute → codes []uint32 (+ nulls bitmap), codes into the
//	                   instance-wide Dict string pool
//
// A FLOAT attribute may legally store INT values (Insert accepts the
// widening, and EqualExact/HashExact are kind-sensitive: Int(1) and
// Float(1) are different keys). The raw word holds math.Float64bits for
// FLOAT rows and the int64 bit pattern for INT rows, with the intRows
// bitmap recording which is which, so round-tripping through the column
// is exact — same kinds, same payload bits as the Value that was
// inserted.
//
// The arenas are append-only and 8-byte-pure (no pointers except the
// dict strings), which is what makes them serializable as flat snapshot
// sections and mmap-able back in without decoding (snapshot.go).

// bitset is a packed bit vector. The zero value is an empty set; bits
// are appended via setGrow as rows arrive.
type bitset []uint64

func (b bitset) get(i int) bool {
	w := i >> 6
	return w < len(b) && (b[w]>>(uint(i)&63))&1 != 0
}

// setGrow sets bit i, extending the word slice as needed. Appending to
// a snapshot-aliased bitset reallocates (len==cap), so mapped memory is
// never written.
func (b *bitset) setGrow(i int) {
	w := i >> 6
	for len(*b) <= w {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << (uint(i) & 63)
}

// column is one attribute's arena. Exactly one of ints/raw/codes is
// populated, per the declared kind.
type column struct {
	kind    Kind
	ints    []int64  // KindInt
	raw     []uint64 // KindFloat: Float64bits, or int64 bits when intRows
	codes   []uint32 // KindString: dict codes
	nulls   bitset   // set = NULL at that row
	intRows bitset   // KindFloat only: set = row holds a KindInt value
}

// appendValue appends v (already schema-validated by Insert) as row
// `row` of the column.
func (c *column) appendValue(d *Dict, row int, v Value) {
	if v.IsNull() {
		c.nulls.setGrow(row)
		v = Value{} // store a zero payload under the null bit
	}
	switch c.kind {
	case KindInt:
		c.ints = append(c.ints, v.i)
	case KindFloat:
		if v.kind == KindInt {
			c.intRows.setGrow(row)
			c.raw = append(c.raw, uint64(v.i))
		} else {
			c.raw = append(c.raw, math.Float64bits(v.f))
		}
	case KindString:
		if v.kind == KindString {
			c.codes = append(c.codes, d.Intern(v.s))
		} else {
			c.codes = append(c.codes, 0)
		}
	default:
		// Schema validation (NewInstance) rejects other attribute kinds.
		panic("db: column of kind " + c.kind.String())
	}
}

// value materializes row `row` as a Value.
func (c *column) value(d *Dict, row int) Value {
	if c.nulls.get(row) {
		return Null()
	}
	switch c.kind {
	case KindInt:
		return Int(c.ints[row])
	case KindFloat:
		if c.intRows.get(row) {
			return Int(int64(c.raw[row]))
		}
		return Float(math.Float64frombits(c.raw[row]))
	default:
		return Str(d.strs[c.codes[row]])
	}
}

// hashRow folds row `row` into h with the columnar twin of
// Value.HashExact: identical for INT/FLOAT/NULL, but strings fold their
// 4-byte dict code instead of walking the bytes. Probe sides must pair
// it with Instance.HashProbeValue so both sides of an index agree.
func (c *column) hashRow(h uint64, row int) uint64 {
	if c.nulls.get(row) {
		return hashByte(h, byte(KindNull))
	}
	switch c.kind {
	case KindInt:
		return hashUint64(hashByte(h, byte(KindInt)), uint64(c.ints[row]))
	case KindFloat:
		if c.intRows.get(row) {
			return hashUint64(hashByte(h, byte(KindInt)), c.raw[row])
		}
		return hashUint64(hashByte(h, byte(KindFloat)), c.raw[row])
	default:
		return hashUint64(hashByte(h, byte(KindString)), uint64(c.codes[row]))
	}
}

// equalRows reports EqualExact of rows a and b of the column — code
// comparison for strings, bit comparison for numerics.
func (c *column) equalRows(a, b int) bool {
	na, nb := c.nulls.get(a), c.nulls.get(b)
	if na || nb {
		return na && nb
	}
	switch c.kind {
	case KindInt:
		return c.ints[a] == c.ints[b]
	case KindFloat:
		return c.intRows.get(a) == c.intRows.get(b) && c.raw[a] == c.raw[b]
	default:
		return c.codes[a] == c.codes[b]
	}
}

// matchValue reports EqualExact between row `row` and a probe Value.
func (c *column) matchValue(d *Dict, row int, v Value) bool {
	if c.nulls.get(row) {
		return v.kind == KindNull
	}
	switch c.kind {
	case KindInt:
		return v.kind == KindInt && v.i == c.ints[row]
	case KindFloat:
		if c.intRows.get(row) {
			return v.kind == KindInt && uint64(v.i) == c.raw[row]
		}
		return v.kind == KindFloat && math.Float64bits(v.f) == c.raw[row]
	default:
		return v.kind == KindString && v.s == d.strs[c.codes[row]]
	}
}

// compareRows is Value.Compare between rows a and b of the column
// without materializing either side (strings still compare
// lexicographically when their codes differ — Compare is an order, not
// an identity).
func (c *column) compareRows(d *Dict, a, b int) int {
	na, nb := c.nulls.get(a), c.nulls.get(b)
	switch {
	case na && nb:
		return 0
	case na:
		return -1
	case nb:
		return 1
	}
	switch c.kind {
	case KindInt:
		return cmpInt64(c.ints[a], c.ints[b])
	case KindFloat:
		fa, fb := c.floatAt(a), c.floatAt(b)
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		}
		return 0
	default:
		ca, cb := c.codes[a], c.codes[b]
		if ca == cb {
			return 0
		}
		sa, sb := d.strs[ca], d.strs[cb]
		switch {
		case sa < sb:
			return -1
		case sa > sb:
			return 1
		}
		return 0
	}
}

func (c *column) floatAt(row int) float64 {
	if c.intRows.get(row) {
		return float64(int64(c.raw[row]))
	}
	return math.Float64frombits(c.raw[row])
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// relColumns is one relation's columnar arena: the fact IDs in
// insertion order plus one column per attribute.
type relColumns struct {
	ids  []FactID
	cols []column
}

func newRelColumns(rs *RelationSchema) *relColumns {
	rc := &relColumns{cols: make([]column, rs.Arity())}
	for i, a := range rs.Attrs {
		rc.cols[i].kind = a.Kind
	}
	return rc
}

// RowView is an allocation-free window onto one fact. It replaces `in.Fact(id).Tuple` at hot call sites: values
// are materialized one position at a time, on demand.
type RowView struct {
	dict *Dict
	rc   *relColumns
	row  int
}

// Value returns the value at attribute position pos.
func (r RowView) Value(pos int) Value {
	return r.rc.cols[pos].value(r.dict, r.row)
}

// Match reports EqualExact between position pos and v without
// materializing the stored value.
func (r RowView) Match(pos int, v Value) bool {
	return r.rc.cols[pos].matchValue(r.dict, r.row, v)
}
