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

// value materializes row `row` as a Value. It is d.CellValue(c.cell(row))
// without the intermediate Cell, which the value-reading paths (the
// rewriting executor, aggregation) would pay per read.
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

// hashRow folds row `row` into h: HashCell(h, c.cell(row)), the columnar
// twin of Value.HashExact that folds a string's 4-byte dict code
// instead of walking the bytes, computed without the intermediate Cell.
// Probe sides hash cells (HashCell) so both sides of an index agree.
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

// RowView is an allocation-free window onto one fact: values (or
// cells) are read one position at a time, on demand.
type RowView struct {
	dict *Dict
	rc   *relColumns
	row  int
}

// Value returns the value at attribute position pos.
func (r RowView) Value(pos int) Value {
	return r.rc.cols[pos].value(r.dict, r.row)
}
