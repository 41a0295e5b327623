package db

import (
	"strconv"
	"testing"
)

// TestDictTable checks the flat string → code table: codes are dense in
// first-intern order, re-interning returns the same code through every
// growth step, absent strings miss (the empty string included until it
// is interned), and a table rebuilt from the bare pool, as a snapshot
// load does, answers every lookup the same way.
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
	loaded := &Dict{strs: d.strs}
	loaded.rebuildTable()
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
