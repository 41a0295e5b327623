package db

import (
	"math"
	"sync"
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

// TestRanks checks the rank table against Value.Compare: for every pair
// of stored cells Ranks.CompareCells must be Compare and EqualCells
// Compare == 0, and for strings no fact stores (between, before and
// after the stored ones) Ranks.CompareString and Dict.CompareString
// must be Compare with the string. Growing the dictionary after the
// build must not make any table answer with a stale rank: the old table
// falls back to the bytes for the new codes, and Ranks rebuilds.
func TestRanks(t *testing.T) {
	s := NewSchema()
	s.MustAddRelation(&RelationSchema{
		Name:  "T",
		Attrs: []Attribute{{Name: "S", Kind: KindString}, {Name: "F", Kind: KindFloat}},
	})
	in := NewInstance(s)
	var ids []FactID
	insert := func(vals ...Value) {
		for _, v := range vals {
			row := Tuple{Null(), Null()}
			if v.Kind() == KindString {
				row[0] = v
			} else {
				row[1] = v
			}
			ids = append(ids, in.MustInsert("T", row...))
		}
	}
	insert(Str("1995-03-15"), Str("b"), Str(""), Str("ab"), Str("a"), Str("1994-12-31"), Str("é"), Null(), Int(3), Float(2.5))
	absent := []string{"0", "1995-01-01", "1995-03-15 ", "aa", "az", "c", "zzz", "\xff"}
	d := in.Dict()

	check := func(label string, rk *Ranks) {
		t.Helper()
		for _, a := range ids {
			va, ca := in.Row(a).Value(0), in.Row(a).Cell(0)
			if va.IsNull() {
				va, ca = in.Row(a).Value(1), in.Row(a).Cell(1)
			}
			for _, b := range ids {
				vb, cb := in.Row(b).Value(0), in.Row(b).Cell(0)
				if vb.IsNull() {
					vb, cb = in.Row(b).Value(1), in.Row(b).Cell(1)
				}
				if got, want := rk.CompareCells(ca, cb), va.Compare(vb); got != want {
					t.Fatalf("%s: Ranks.CompareCells(%v, %v) = %d, Compare %d", label, va, vb, got, want)
				}
				if got, want := d.EqualCells(ca, cb), va.Compare(vb) == 0; got != want {
					t.Fatalf("%s: EqualCells(%v, %v) = %v, want %v", label, va, vb, got, want)
				}
			}
			for _, s := range absent {
				want := va.Compare(Str(s))
				if got := rk.CompareString(ca, s, rk.Of(s)); got != want {
					t.Fatalf("%s: Ranks.CompareString(%v, %q) = %d, Compare %d", label, va, s, got, want)
				}
				if got := d.CompareString(ca, s); got != want {
					t.Fatalf("%s: Dict.CompareString(%v, %q) = %d, Compare %d", label, va, s, got, want)
				}
			}
		}
	}
	before := d.Ranks()
	if d.Ranks() != before {
		t.Fatal("Ranks rebuilt an unchanged dictionary's table")
	}
	for _, s := range absent {
		if _, ok := d.Lookup(s); ok {
			t.Fatalf("%q is stored", s)
		}
		if before.Of(s)%2 != 0 {
			t.Fatalf("absent %q has the odd rank %d", s, before.Of(s))
		}
	}
	check("built", before)

	// Grow the dictionary: two strings sort between stored ones, one
	// before them all, and two were absent constants above (their ranks
	// from the old table now meet cells with codes it does not hold).
	insert(Str("aa"), Str("1995-02-01"), Str(" "), Str("zzz"))
	check("stale table", before)
	after := d.Ranks()
	if after == before || len(after.rank) != d.Len() {
		t.Fatalf("Ranks after growth: same table %v, %d ranks for %d strings", after == before, len(after.rank), d.Len())
	}
	check("rebuilt", after)
}

// TestRanksConcurrent: readers racing into the first build share one
// table (run under -race by make race).
func TestRanksConcurrent(t *testing.T) {
	d := NewDict()
	for _, s := range []string{"c", "a", "b"} {
		d.Intern(s)
	}
	tables := make([]*Ranks, 8)
	var wg sync.WaitGroup
	for i := range tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tables[i] = d.Ranks()
		}()
	}
	wg.Wait()
	for _, r := range tables {
		if r != tables[0] || r.Of("b") != 3 {
			t.Fatalf("tables %v: want one shared table ranking b 3", tables)
		}
	}
}
