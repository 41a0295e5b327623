package db

import (
	"fmt"
	"testing"
)

func TestValueEqualExact(t *testing.T) {
	cases := []struct {
		a, b  Value
		equal bool
	}{
		{Int(1), Int(1), true},
		{Int(1), Int(2), false},
		{Int(1), Float(1), false}, // Compare-equal but not key-equal
		{Float(1.5), Float(1.5), true},
		{Str("a"), Str("a"), true},
		{Str("a"), Str("b"), false},
		{Null(), Null(), true},
		{Null(), Int(0), false},
	}
	for _, c := range cases {
		if got := c.a.EqualExact(c.b); got != c.equal {
			t.Errorf("EqualExact(%v, %v) = %v, want %v", c.a, c.b, got, c.equal)
		}
		if c.equal {
			if c.a.HashExact(HashSeed) != c.b.HashExact(HashSeed) {
				t.Errorf("equal values %v, %v hash differently", c.a, c.b)
			}
		}
	}
}

// TestTupleHashKeyMatchesKey: the instance's projection hash and
// equality (HashRowOn, EqualRowsOn) are the hash twin of Tuple.Key —
// facts whose tuples have equal Key strings must compare equal and
// hash equally; facts with different Key strings must be told apart.
func TestTupleHashKeyMatchesKey(t *testing.T) {
	s := NewSchema()
	s.MustAddRelation(&RelationSchema{
		Name:  "T",
		Attrs: []Attribute{{Name: "a", Kind: KindFloat}, {Name: "b", Kind: KindString}},
	})
	in := NewInstance(s)
	tuples := []Tuple{
		{Int(1), Str("a")},
		{Int(1), Str("b")},
		{Float(1), Str("a")}, // Compare-equal to Int(1) but not key-equal
		{Null(), Str("a")},
		{Int(2), Str("a")},
		{Float(0), Str("a")},
		{Float(-0.0), Str("a")}, // bit-distinct from +0.0
		{Int(1), Str("a")},      // duplicate of the first
	}
	ids := make([]FactID, len(tuples))
	for i, tu := range tuples {
		ids[i] = in.MustInsert("T", tu...)
	}
	for _, pos := range [][]int{{0}, {1}, {0, 1}} {
		for i, a := range tuples {
			for j, b := range tuples {
				keyEq := a.Key(pos) == b.Key(pos)
				if got := in.EqualRowsOn(ids[i], ids[j], pos); got != keyEq {
					t.Errorf("pos %v: EqualRowsOn(%d,%d) = %v, Key equality = %v", pos, i, j, got, keyEq)
				}
				if keyEq && in.HashRowOn(ids[i], pos, HashSeed) != in.HashRowOn(ids[j], pos, HashSeed) {
					t.Errorf("pos %v: key-equal tuples %d,%d hash differently", pos, i, j)
				}
			}
		}
	}
}

func TestHashStringNoConcatenationAmbiguity(t *testing.T) {
	a := Tuple{Str("ab"), Str("c")}
	b := Tuple{Str("a"), Str("bc")}
	if a.HashExact(HashSeed) == b.HashExact(HashSeed) {
		t.Error("adjacent string values merged in the hash")
	}
}

func TestHashFactSet(t *testing.T) {
	a := HashFactSet([]FactID{1, 2, 3})
	b := HashFactSet([]FactID{1, 2, 3})
	if a != b {
		t.Error("equal fact sets hash differently")
	}
	if HashFactSet([]FactID{1, 2}) == HashFactSet([]FactID{1, 2, 3}) {
		t.Error("prefix fact set collides with its extension")
	}
	if HashFactSet(nil) != HashFactSet([]FactID{}) {
		t.Error("nil and empty fact sets hash differently")
	}
}

// randomKeyedInstance builds an instance with deliberate key collisions
// across INT, FLOAT, STRING and NULL key values.
func randomKeyedInstance(seed uint64, n int) *Instance {
	s := NewSchema()
	s.MustAddRelation(&RelationSchema{
		Name: "R",
		Attrs: []Attribute{
			{Name: "k", Kind: KindInt},
			{Name: "v", Kind: KindString},
		},
		Key: []int{0},
	})
	s.MustAddRelation(&RelationSchema{
		Name: "S",
		Attrs: []Attribute{
			{Name: "k", Kind: KindFloat},
			{Name: "m", Kind: KindString},
			{Name: "v", Kind: KindInt},
		},
		Key: []int{0, 1},
	})
	s.MustAddRelation(&RelationSchema{
		Name:  "NoKey",
		Attrs: []Attribute{{Name: "x", Kind: KindInt}},
	})
	in := NewInstance(s)
	state := seed | 1
	next := func(m int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(m))
	}
	for i := 0; i < n; i++ {
		in.MustInsert("R", Int(int64(next(5))), Str(fmt.Sprintf("v%d", next(3))))
		key := Value(Float(float64(next(4))))
		if next(7) == 0 {
			key = Int(int64(next(4))) // INT in a FLOAT column: key-distinct from Float of same value
		}
		if next(11) == 0 {
			key = Null()
		}
		in.MustInsert("S", key, Str(fmt.Sprintf("m%d", next(2))), Int(int64(next(9))))
		if next(3) == 0 {
			in.MustInsert("NoKey", Int(int64(i)))
		}
	}
	return in
}

func groupsEqual(a, b []KeyEqualGroup) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Rel != b[i].Rel || len(a[i].Facts) != len(b[i].Facts) {
			return false
		}
		for j := range a[i].Facts {
			if a[i].Facts[j] != b[i].Facts[j] {
				return false
			}
		}
	}
	return true
}

// TestKeyEqualGroupsHashMatchesLegacy: the hash-grouped partition
// equals the legacy string-keyed grouping by Tuple.Key
// (refKeyEqualGroups).
func TestKeyEqualGroupsHashMatchesLegacy(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		in := randomKeyedInstance(uint64(trial)+7, 40+trial)
		got := in.KeyEqualGroups()
		want := refKeyEqualGroups(in.Schema(), refOf(in))
		if !groupsEqual(got, want) {
			t.Fatalf("trial %d: hash-grouped partition differs from legacy\n got: %v\nwant: %v", trial, got, want)
		}
	}
}

func TestKeyEqualGroupsMemo(t *testing.T) {
	in := randomKeyedInstance(3, 20)
	first := in.KeyEqualGroups()
	second := in.KeyEqualGroups()
	if &first[0] != &second[0] {
		t.Error("memoized call rebuilt the partition")
	}
	// An insert invalidates the memo.
	in.MustInsert("R", Int(0), Str("fresh"))
	third := in.KeyEqualGroups()
	if groupsEqual(first, third) {
		t.Error("memo not invalidated by Insert")
	}
	if !groupsEqual(third, refKeyEqualGroups(in.Schema(), refOf(in))) {
		t.Error("post-insert partition differs from legacy")
	}
}
