package db

import (
	"math"
	"strings"
)

// Cell is the pointer-free exact encoding of one stored value: its kind
// plus a 64-bit payload — the int64 bits of an INT, the Float64bits of
// a FLOAT, the dictionary code of a STRING, zero for NULL. Within one
// instance two cells are == exactly when their values are EqualExact
// (an INT stored in a FLOAT column stays an INT cell), and HashCell
// folds exactly what HashRowOn folds for the stored value, so a probe
// built from cells meets the row hashes of an index directly. Cells of
// different instances are not comparable: their string codes come from
// different dictionaries.
type Cell struct {
	bits uint64
	kind Kind
}

// cell returns row `row` of the column as a Cell.
func (c *column) cell(row int) Cell {
	if c.nulls.get(row) {
		return Cell{}
	}
	switch c.kind {
	case KindInt:
		return Cell{bits: uint64(c.ints[row]), kind: KindInt}
	case KindFloat:
		if c.intRows.get(row) {
			return Cell{bits: c.raw[row], kind: KindInt}
		}
		return Cell{bits: c.raw[row], kind: KindFloat}
	default:
		return Cell{bits: uint64(c.codes[row]), kind: KindString}
	}
}

// Cell returns the value at attribute position pos as a Cell.
func (r RowView) Cell(pos int) Cell { return r.rc.cols[pos].cell(r.row) }

// CellOf encodes v against the dictionary. ok=false means v is a string
// no fact of the owning instance stores, so no stored cell can equal it.
func (d *Dict) CellOf(v Value) (c Cell, ok bool) {
	switch v.kind {
	case KindInt:
		return Cell{bits: uint64(v.i), kind: KindInt}, true
	case KindFloat:
		return Cell{bits: math.Float64bits(v.f), kind: KindFloat}, true
	case KindString:
		code, ok := d.Lookup(v.s)
		return Cell{bits: uint64(code), kind: KindString}, ok
	default:
		return Cell{}, true
	}
}

// CellValue decodes c back into the Value it encodes.
func (d *Dict) CellValue(c Cell) Value {
	switch c.kind {
	case KindInt:
		return Int(int64(c.bits))
	case KindFloat:
		return Float(math.Float64frombits(c.bits))
	case KindString:
		return Str(d.strs[c.bits])
	default:
		return Null()
	}
}

// HashCell folds c into h: the kind tag, then (unless NULL) the payload
// word. For INT, FLOAT and NULL this is Value.HashExact; strings fold
// their dictionary code instead of their bytes.
func HashCell(h uint64, c Cell) uint64 {
	h = hashByte(h, byte(c.kind))
	if c.kind == KindNull {
		return h
	}
	return hashUint64(h, c.bits)
}

// CompareCells is Value.Compare on the values a and b encode: NULL <
// numbers < strings, INT against INT exactly, other numeric pairs as
// float64, strings by byte order (equal codes short-circuit).
func (d *Dict) CompareCells(a, b Cell) int {
	if a.kind == KindInt && b.kind == KindInt {
		return cmpInt64(int64(a.bits), int64(b.bits))
	}
	if ra, rb := a.kind.rank(), b.kind.rank(); ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch a.kind {
	case KindNull:
		return 0
	case KindString:
		if a.bits == b.bits {
			return 0
		}
		return strings.Compare(d.strs[a.bits], d.strs[b.bits])
	default:
		fa, fb := a.float(), b.float()
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		}
		return 0
	}
}

// EqualCells reports whether CompareCells(a, b) is 0 without ordering
// strings: two string cells are equal iff their codes are.
func (d *Dict) EqualCells(a, b Cell) bool {
	if a == b {
		return true
	}
	if a.kind == KindString && b.kind == KindString {
		return false
	}
	return d.CompareCells(a, b) == 0
}

// CompareString is Value.Compare of the value cell a encodes with the
// string s, which need not be in the dictionary: NULL and numbers sort
// below every string.
func (d *Dict) CompareString(a Cell, s string) int {
	if a.kind != KindString {
		return -1
	}
	return strings.Compare(d.strs[a.bits], s)
}

// float returns a numeric cell's value as float64.
func (c Cell) float() float64 {
	if c.kind == KindInt {
		return float64(int64(c.bits))
	}
	return math.Float64frombits(c.bits)
}

// rank orders the kinds as Value.Compare does: NULL, numbers, strings.
func (k Kind) rank() int {
	switch k {
	case KindNull:
		return 0
	case KindInt, KindFloat:
		return 1
	default:
		return 2
	}
}
