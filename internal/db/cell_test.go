package db

import (
	"math"
	"testing"
)

// TestCells checks the cell encoding against the Value methods it
// stands in for, over every kind: NULL, INT (in INT and in FLOAT
// columns), FLOAT (±0.0, NaN, ±Inf, values equal to an INT) and
// STRING. For every stored pair, cell equality must be EqualExact,
// CompareCells must be Compare, and HashCell must be the stored row's
// hash (and HashExact for the non-string kinds); CellOf and CellValue
// must round-trip.
func TestCells(t *testing.T) {
	s := NewSchema()
	s.MustAddRelation(&RelationSchema{
		Name: "T",
		Attrs: []Attribute{
			{Name: "I", Kind: KindInt},
			{Name: "F", Kind: KindFloat},
			{Name: "S", Kind: KindString},
		},
	})
	in := NewInstance(s)
	ints := []Value{Null(), Int(0), Int(1), Int(-1), Int(math.MaxInt64), Int(math.MinInt64), Int(1<<53 + 1)}
	floats := []Value{Null(), Float(0), Float(math.Copysign(0, -1)), Float(1), Float(1.5), Float(-2.25),
		Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)), Float(1 << 53), Int(1), Int(7)}
	strs := []Value{Null(), Str(""), Str("a"), Str("ab"), Str("b"), Str("1995-03-15")}

	type stored struct {
		v   Value
		id  FactID
		pos int
	}
	var all []stored
	for pos, vals := range [][]Value{ints, floats, strs} {
		for _, v := range vals {
			row := Tuple{Null(), Null(), Null()}
			row[pos] = v
			all = append(all, stored{v: v, id: in.MustInsert("T", row...), pos: pos})
		}
	}

	d := in.Dict()
	for _, a := range all {
		ca := in.Row(a.id).Cell(a.pos)
		if c, ok := d.CellOf(a.v); !ok || c != ca {
			t.Fatalf("CellOf(%v) = %v, %v; stored cell %v", a.v, c, ok, ca)
		}
		if got := d.CellValue(ca); !got.EqualExact(a.v) {
			t.Fatalf("CellValue(cell of %v) = %v", a.v, got)
		}
		if got, want := HashCell(HashSeed, ca), in.HashRowOn(a.id, []int{a.pos}, HashSeed); got != want {
			t.Fatalf("HashCell(%v) = %x, row hash %x", a.v, got, want)
		}
		if a.v.Kind() != KindString {
			if got, want := HashCell(HashSeed, ca), a.v.HashExact(HashSeed); got != want {
				t.Fatalf("HashCell(%v) = %x, HashExact %x", a.v, got, want)
			}
		}
		for _, b := range all {
			cb := in.Row(b.id).Cell(b.pos)
			if got, want := ca == cb, a.v.EqualExact(b.v); got != want {
				t.Fatalf("cell(%v) == cell(%v) is %v, EqualExact %v", a.v, b.v, got, want)
			}
			if got, want := d.CompareCells(ca, cb), a.v.Compare(b.v); got != want {
				t.Fatalf("CompareCells(%v, %v) = %d, Compare %d", a.v, b.v, got, want)
			}
		}
	}
	if _, ok := d.CellOf(Str("absent")); ok {
		t.Fatal("CellOf of a string no fact stores must miss")
	}
}
