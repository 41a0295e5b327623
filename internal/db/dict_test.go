package db

import (
	"slices"
	"strconv"
	"testing"
)

// TestDictTable checks the flat string → code table: codes are dense in
// first-intern order, re-interning returns the same code through every
// growth step, absent strings miss (the empty string included until it
// is interned), the table stays at least 2·(Len()+1) long, a table
// rebuilt from the bare pool at the same length is slot for slot the
// grown one (which is what lets a snapshot store it), and a dictionary
// aliasing the three arrays, as a snapshot load makes, answers every
// lookup the same way.
func TestDictTable(t *testing.T) {
	d := NewDict()
	if _, ok := d.Lookup("x"); ok {
		t.Fatal("empty dict found a string")
	}
	const n = 5000
	for i := 0; i < n; i++ {
		if c := d.Intern("s" + strconv.Itoa(i)); c != uint32(i) {
			t.Fatalf("Intern(s%d) = %d, want %d", i, c, i)
		}
	}
	if c := d.Intern("s17"); c != 17 || d.Len() != n {
		t.Fatalf("re-intern: code %d, len %d", c, d.Len())
	}
	if _, ok := d.Lookup(""); ok {
		t.Fatal("empty string found before it was interned")
	}
	e := d.Intern("")
	if len(d.table) < 2*(d.Len()+1) {
		t.Fatalf("table of %d slots for %d strings", len(d.table), d.Len())
	}
	rebuilt := &Dict{offs: d.offs, bytes: d.bytes}
	rebuilt.rebuildTable(len(d.table))
	if !slices.Equal(rebuilt.table, d.table) {
		t.Fatal("a rebuilt table differs from the grown one")
	}
	loaded := &Dict{offs: d.offs, bytes: d.bytes, table: d.table, mapped: true}
	for _, dict := range []*Dict{d, loaded} {
		for i := 0; i < n; i++ {
			s := "s" + strconv.Itoa(i)
			if c, ok := dict.Lookup(s); !ok || c != uint32(i) || dict.String(c) != s {
				t.Fatalf("Lookup(%s) = %d, %v", s, c, ok)
			}
		}
		if c, ok := dict.Lookup(""); !ok || c != e {
			t.Fatalf("Lookup(\"\") = %d, %v, want %d", c, ok, e)
		}
		if _, ok := dict.Lookup("s" + strconv.Itoa(n)); ok {
			t.Fatal("absent string found")
		}
	}
}

// TestDictCorruptTable: a loaded table whose codes run past the pool,
// or which has no empty slot, makes lookups miss, never panic or hang,
// and offsets past the pool read as clamped strings.
func TestDictCorruptTable(t *testing.T) {
	d := NewDict()
	for _, s := range []string{"a", "bb", "ccc"} {
		d.Intern(s)
	}
	full := make([]uint32, 8)
	for i := range full {
		full[i] = uint32(100 + i)
	}
	loaded := &Dict{offs: d.offs, bytes: d.bytes, table: full, mapped: true}
	if _, ok := loaded.Lookup("bb"); ok {
		t.Fatal("corrupt table found a string")
	}
	if c := loaded.Intern("bb"); c != 1 {
		t.Fatalf("Intern on a corrupt loaded table: code %d, want 1 (a copy)", c)
	}
	if full[0] != 100 {
		t.Fatal("Intern wrote into a loaded table")
	}
	bad := &Dict{offs: []uint64{0, 9, 2}, bytes: []byte("abc"), table: make([]uint32, 8)}
	if got := bad.String(0); got != "abc" {
		t.Fatalf("String(0) = %q, want the pool clamped", got)
	}
	if got := bad.String(1); got != "" {
		t.Fatalf("String(1) = %q, want empty", got)
	}
}

// BenchmarkIntern interns 77,409 distinct short strings, the size of a
// Medigap scale 0.5 dictionary, into a fresh dictionary.
func BenchmarkIntern(b *testing.B) {
	strs := make([]string, 77409)
	for i := range strs {
		strs[i] = "plan-" + strconv.Itoa(i*7919) + "@example.org"
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDict()
		for _, s := range strs {
			d.Intern(s)
		}
	}
}
