package db

import (
	"fmt"
	"slices"
	"testing"

	"aggcavsat/internal/xrand"
)

// requireIndexMatches checks the index against the expected violating
// groups (ascending members, ordered by smallest member): the CSR
// arrays, and GroupOf, Safe and MemberOf for every fact.
func requireIndexMatches(t *testing.T, in *Instance, x *KeyIndex, want [][]FactID) {
	t.Helper()
	if x.NumGroups() != len(want) {
		t.Fatalf("%d violating groups, want %d\n got: %v\nwant: %v", x.NumGroups(), len(want), indexGroups(x), want)
	}
	if x.facts != in.NumFacts() || x.groupOf != nil && len(x.groupOf) != in.NumFacts() {
		t.Fatalf("index covers %d facts (groupOf %d), instance has %d", x.facts, len(x.groupOf), in.NumFacts())
	}
	inGroup := make([]int, in.NumFacts())
	for i := range inGroup {
		inGroup[i] = -1
	}
	violating := 0
	for g, w := range want {
		if got := x.Members(g); !slices.Equal(got, w) {
			t.Fatalf("group %d = %v, want %v", g, got, w)
		}
		for m, f := range w {
			inGroup[f] = g
			if x.MemberOf(f) != int32(m) {
				t.Fatalf("MemberOf(%d) = %d, want %d", f, x.MemberOf(f), m)
			}
		}
		violating += len(w)
	}
	if len(x.members) != violating {
		t.Fatalf("%d violating facts, want %d", len(x.members), violating)
	}
	for f, g := range inGroup {
		if x.GroupOf(FactID(f)) != g || x.Safe(FactID(f)) != (g < 0) {
			t.Fatalf("fact %d: GroupOf %d Safe %v, want group %d", f, x.GroupOf(FactID(f)), x.Safe(FactID(f)), g)
		}
	}
}

// requireSameIndex checks two indexes are identical, array by array.
func requireSameIndex(t *testing.T, got, want *KeyIndex) {
	t.Helper()
	if got.facts != want.facts || !slices.Equal(got.groupOf, want.groupOf) || !slices.Equal(got.offsets, want.offsets) || !slices.Equal(got.members, want.members) {
		t.Fatalf("key indexes differ\n got: %v\nwant: %v", indexGroups(got), indexGroups(want))
	}
}

func indexGroups(x *KeyIndex) [][]FactID {
	out := make([][]FactID, x.NumGroups())
	for g := range out {
		out[g] = x.Members(g)
	}
	return out
}

// randomGroupInstance interleaves facts of keyed and keyless relations:
// INT, FLOAT (with INT values in the FLOAT key, which are key-distinct
// from the equal float) and STRING keys, single and composite, small
// key domains so groups form, and NULLs in non-key positions.
func randomGroupInstance(seed uint64, n int) *Instance {
	s := NewSchema()
	s.MustAddRelation(&RelationSchema{Name: "A", Key: []int{0},
		Attrs: []Attribute{{Name: "k", Kind: KindInt}, {Name: "v", Kind: KindString}}})
	s.MustAddRelation(&RelationSchema{Name: "B", Key: []int{0, 2},
		Attrs: []Attribute{{Name: "k", Kind: KindFloat}, {Name: "x", Kind: KindInt}, {Name: "s", Kind: KindString}}})
	s.MustAddRelation(&RelationSchema{Name: "C",
		Attrs: []Attribute{{Name: "x", Kind: KindInt}, {Name: "y", Kind: KindString}}})
	s.MustAddRelation(&RelationSchema{Name: "D", Key: []int{1},
		Attrs: []Attribute{{Name: "v", Kind: KindFloat}, {Name: "k", Kind: KindString}}})
	in := NewInstance(s)
	r := xrand.New(seed)
	maybeNull := func(v Value) Value {
		if r.Intn(4) == 0 {
			return Null()
		}
		return v
	}
	dom := 2 + r.Intn(12)
	for i := 0; i < n; i++ {
		switch r.Intn(4) {
		case 0:
			in.MustInsert("A", Int(int64(r.Intn(dom))), maybeNull(Str(fmt.Sprint("v", r.Intn(3)))))
		case 1:
			k := Value(Float(float64(r.Intn(dom)) / 2))
			if r.Intn(5) == 0 {
				k = Int(int64(r.Intn(dom)))
			}
			in.MustInsert("B", k, maybeNull(Int(int64(r.Intn(9)))), Str(fmt.Sprint("s", r.Intn(2))))
		case 2:
			in.MustInsert("C", Int(int64(r.Intn(3))), maybeNull(Str("c")))
		default:
			in.MustInsert("D", maybeNull(Float(float64(r.Intn(5)))), Str(fmt.Sprint("k", r.Intn(dom))))
		}
	}
	return in
}

// TestKeyIndexMatchesNaivePartition: on random instances the index
// equals a map[string][]FactID partition by Tuple.Key, built fresh and
// with the key hash narrowed to two bits, so nearly every probe meets a
// colliding tag that EqualRowsOn must reject.
func TestKeyIndexMatchesNaivePartition(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		in := randomGroupInstance(seed, int(seed*7%300))
		want := refKeyEqualGroups(in.Schema(), refOf(in))
		requireIndexMatches(t, in, in.KeyEqualGroups(), want)
		for _, mask := range []uint64{0, 3} {
			x := in.buildKeyIndex(func(rel RelID, key []int) *Partition { return in.buildPartition(rel, key, mask) })
			requireIndexMatches(t, in, x, want)
		}
	}
}

// TestPartitionMatchesNaive: the kernel's full partition of every
// relation on several position lists equals a map[string][]FactID
// grouping by Tuple.Key (groups in first-seen order, members
// ascending), and a probe with each group's cells, and with cells no
// fact holds, finds what the map finds — with the full hash and with
// the hash narrowed to zero and two bits, where every probe walks
// colliding tags.
func TestPartitionMatchesNaive(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		in := randomGroupInstance(seed, int(seed*11%400))
		ref := refOf(in)
		for _, rs := range in.Schema().Relations() {
			for _, pos := range [][]int{{0}, {1}, {0, 1}, {1, 0}, {}} {
				var order []string
				byKey := map[string][]FactID{}
				for _, f := range in.RelFactsByID(rs.ID()) {
					k := ref[f].t.Key(pos)
					if _, ok := byKey[k]; !ok {
						order = append(order, k)
					}
					byKey[k] = append(byKey[k], f)
				}
				for _, mask := range []uint64{^uint64(0), 0, 3} {
					p := in.buildPartition(rs.ID(), pos, mask)
					if p.NumGroups() != len(order) {
						t.Fatalf("seed %d %s%v mask %x: %d groups, want %d", seed, rs.Name, pos, mask, p.NumGroups(), len(order))
					}
					for g, k := range order {
						got := p.Members(g)
						if !slices.Equal(got, byKey[k]) {
							t.Fatalf("seed %d %s%v mask %x: group %d = %v, want %v", seed, rs.Name, pos, mask, g, got, byKey[k])
						}
						if hit := p.Lookup(cellsOf(in, got[0], pos)); !slices.Equal(hit, got) {
							t.Fatalf("seed %d %s%v mask %x: probe of group %d = %v", seed, rs.Name, pos, mask, g, hit)
						}
					}
					// A projection no fact holds: an INT absent from
					// every domain (the generator stays below 30).
					if len(pos) > 0 {
						miss := make([]Cell, len(pos))
						for i := range miss {
							miss[i] = Cell{bits: 1 << 40, kind: KindInt}
						}
						if hit := p.Lookup(miss); hit != nil {
							t.Fatalf("seed %d %s%v mask %x: probe of an absent projection = %v", seed, rs.Name, pos, mask, hit)
						}
					}
				}
			}
		}
	}
}

func cellsOf(in *Instance, f FactID, pos []int) []Cell {
	out := make([]Cell, len(pos))
	for i, p := range pos {
		out[i] = in.Row(f).Cell(p)
	}
	return out
}

// TestKeyIndexEmpty: an instance without facts has an empty index.
func TestKeyIndexEmpty(t *testing.T) {
	in := NewInstance(mixedSchema())
	x := in.KeyEqualGroups()
	if x.NumGroups() != 0 || len(x.members) != 0 {
		t.Fatalf("empty instance: %d groups", x.NumGroups())
	}
}

// TestKeyIndexNoViolationAllocatesNoTable: without a violating group
// the index holds no per-fact array, built or loaded.
func TestKeyIndexNoViolationAllocatesNoTable(t *testing.T) {
	in := NewInstance(mixedSchema())
	in.MustInsert("Mix", Int(1), Float(1), Str("a"), Int(1))
	in.MustInsert("Mix", Int(2), Float(1), Str("a"), Int(1))
	in.MustInsert("NoKey", Str("a"), Float(1))
	in.MustInsert("NoKey", Str("a"), Float(1))
	data, err := EncodeSnapshot(in)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshotBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []*KeyIndex{in.KeyEqualGroups(), loaded.KeyEqualGroups()} {
		if x.groupOf != nil || x.NumGroups() != 0 {
			t.Fatalf("consistent instance: groupOf of %d entries, %d groups", len(x.groupOf), x.NumGroups())
		}
		for f := FactID(0); int(f) < in.NumFacts(); f++ {
			if !x.Safe(f) || x.GroupOf(f) != -1 {
				t.Fatalf("fact %d not safe", f)
			}
		}
	}
}

// TestKeyIndexInsertInvalidates: every Insert after a build moves the
// memo, whether the new fact starts a group, joins one or is a
// singleton.
func TestKeyIndexInsertInvalidates(t *testing.T) {
	in := randomGroupInstance(5, 40)
	r := xrand.New(9)
	for i := 0; i < 30; i++ {
		before := in.KeyEqualGroups()
		in.MustInsert("A", Int(int64(r.Intn(30))), Str("new"))
		after := in.KeyEqualGroups()
		if after == before {
			t.Fatalf("insert %d: memo not invalidated", i)
		}
		requireIndexMatches(t, in, after, refKeyEqualGroups(in.Schema(), refOf(in)))
	}
}

// TestSnapshotAdoptsKeyIndex: a loaded snapshot's index is the stored
// section, identical to the index of the instance it was written from.
func TestSnapshotAdoptsKeyIndex(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		in := randomGroupInstance(seed, 150)
		data, err := EncodeSnapshot(in)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadSnapshotBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.keyIndex == nil {
			t.Fatal("snapshot load did not adopt the key index")
		}
		requireSameIndex(t, loaded.KeyEqualGroups(), in.KeyEqualGroups())
	}
}
