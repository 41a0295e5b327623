package db

import (
	"fmt"
	"testing"

	"aggcavsat/internal/xrand"
)

// mixedSchema exercises every storable shape: INT, FLOAT (with INT
// widening), STRING, keys, keyless relations, and NULLs everywhere.
func mixedSchema() *Schema {
	s := NewSchema()
	s.MustAddRelation(&RelationSchema{
		Name: "Mix",
		Attrs: []Attribute{
			{Name: "ID", Kind: KindInt},
			{Name: "F", Kind: KindFloat},
			{Name: "S", Kind: KindString},
			{Name: "N", Kind: KindInt},
		},
		Key: []int{0},
	})
	s.MustAddRelation(&RelationSchema{
		Name: "NoKey",
		Attrs: []Attribute{
			{Name: "A", Kind: KindString},
			{Name: "B", Kind: KindFloat},
		},
	})
	return s
}

// randomMixedValue draws a value legal for the attribute kind,
// including NULLs, empty strings, negative zero floats, and INT values
// stored in FLOAT attributes (the widening Insert permits).
func randomMixedValue(r *xrand.Rand, kind Kind) Value {
	if r.Intn(8) == 0 {
		return Null()
	}
	switch kind {
	case KindInt:
		return Int(r.Int63n(50) - 10)
	case KindFloat:
		switch r.Intn(4) {
		case 0:
			return Int(r.Int63n(30)) // INT stored in a FLOAT column
		case 1:
			return Float(0)
		case 2:
			return Float(-0.0) // bit-distinct from +0.0 under EqualExact
		default:
			return Float(float64(r.Int63n(100)) / 4)
		}
	default:
		switch r.Intn(5) {
		case 0:
			return Str("")
		default:
			return Str(fmt.Sprintf("s%d", r.Intn(20)))
		}
	}
}

// refFact is one inserted fact as the test itself holds it. A plain
// slice of them, indexed by FactID, is the reference every column
// accessor is checked against: it never touches the column encoding.
type refFact struct {
	rel string // canonical relation name
	t   Tuple
}

// buildMixed inserts n random facts into a fresh instance and returns
// it together with the test-side copy of every inserted tuple.
func buildMixed(seed uint64, n int) (*Instance, []refFact) {
	s := mixedSchema()
	in := NewInstance(s)
	var ref []refFact
	r := xrand.New(seed)
	for i := 0; i < n; i++ {
		rs := s.Relations()[r.Intn(s.NumRelations())]
		t := make(Tuple, rs.Arity())
		for p, a := range rs.Attrs {
			t[p] = randomMixedValue(r, a.Kind)
		}
		if _, err := in.Insert(rs.Name, t); err != nil {
			panic(err)
		}
		ref = append(ref, refFact{rel: rs.canon, t: t.Clone()})
	}
	return in, ref
}

// tupleOf materializes one fact's tuple through ValueAt.
func tupleOf(in *Instance, id FactID) Tuple {
	t := make(Tuple, in.Schema().RelationByID(in.RelOf(id)).Arity())
	for p := range t {
		t[p] = in.ValueAt(id, p)
	}
	return t
}

// refOf materializes an instance's facts into the reference form, for
// comparing two instances (e.g. a snapshot against its source).
func refOf(in *Instance) []refFact {
	ref := make([]refFact, in.NumFacts())
	for id := range ref {
		ref[id] = refFact{rel: in.Schema().RelationByID(in.RelOf(FactID(id))).canon, t: tupleOf(in, FactID(id))}
	}
	return ref
}

// requireSameInstances asserts that a holds exactly b's facts, checked
// accessor by accessor against b's materialized tuples.
func requireSameInstances(t *testing.T, a, b *Instance) {
	t.Helper()
	requireMatchesRef(t, a, refOf(b))
}

// requireMatchesRef asserts that every accessor of the instance agrees
// with the Tuple/Value methods applied to the reference tuples: RelOf,
// RelFacts, ValueAt, Row (values and cells), the Hash* family,
// EqualRowsOn, CompareAt and KeyEqualGroups.
func requireMatchesRef(t *testing.T, in *Instance, ref []refFact) {
	t.Helper()
	if in.NumFacts() != len(ref) {
		t.Fatalf("fact counts differ: %d vs %d", in.NumFacts(), len(ref))
	}
	byRel := map[string][]FactID{}
	for i, rf := range ref {
		id := FactID(i)
		byRel[rf.rel] = append(byRel[rf.rel], id)
		if rs := in.Schema().RelationByID(in.RelOf(id)); rs.canon != rf.rel {
			t.Fatalf("fact %d: RelOf = %q, want %q", id, rs.canon, rf.rel)
		}
		all := make([]int, len(rf.t))
		h := HashSeed
		for p, v := range rf.t {
			all[p] = p
			if got := in.ValueAt(id, p); !got.EqualExact(v) {
				t.Fatalf("fact %d pos %d: ValueAt %v, want %v", id, p, got, v)
			}
			if got := in.Row(id).Value(p); !got.EqualExact(v) {
				t.Fatalf("fact %d pos %d: RowView.Value %v, want %v", id, p, got, v)
			}
			c, ok := in.Dict().CellOf(v)
			if !ok || in.Row(id).Cell(p) != c {
				t.Fatalf("fact %d pos %d: stored cell %v, want CellOf(%v) = %v, %v", id, p, in.Row(id).Cell(p), v, c, ok)
			}
			h = HashCell(h, c)
		}
		// Cell hashes of the reference values must meet the stored
		// row's hash, so index builds and probes agree.
		want := in.HashRowOn(id, all, HashSeed)
		if h != want {
			t.Fatalf("fact %d: probe hash %x != row hash %x", id, h, want)
		}
		if got := in.HashRowAll(id, HashSeed); got != want {
			t.Fatalf("fact %d: HashRowAll %x != HashRowOn(all) %x", id, got, want)
		}
	}
	for _, rs := range in.Schema().Relations() {
		got, want := in.RelFacts(rs.Name), byRel[rs.canon]
		if len(got) != len(want) {
			t.Fatalf("RelFacts(%s): %d facts, want %d", rs.Name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("RelFacts(%s)[%d] = %d, want %d", rs.Name, i, got[i], want[i])
			}
		}
		// Pairwise predicates within the relation, per position and
		// over the key, against Value.EqualExact and Value.Compare.
		ids := want
		if len(ids) > 40 {
			ids = ids[:40]
		}
		for _, x := range ids {
			for _, y := range ids {
				tx, ty := ref[x].t, ref[y].t
				for p := 0; p < rs.Arity(); p++ {
					if got, want := in.CompareAt(x, y, p), tx[p].Compare(ty[p]); got != want {
						t.Fatalf("CompareAt(%d,%d,%d) = %d, want %d", x, y, p, got, want)
					}
					if got, want := in.EqualRowsOn(x, y, []int{p}), tx[p].EqualExact(ty[p]); got != want {
						t.Fatalf("EqualRowsOn(%d,%d,[%d]) = %v, want %v", x, y, p, got, want)
					}
				}
				keyEq := tx.Key(rs.Key) == ty.Key(rs.Key)
				if got := in.EqualRowsOn(x, y, rs.Key); got != keyEq {
					t.Fatalf("EqualRowsOn(%d,%d,key) = %v, Key equality %v", x, y, got, keyEq)
				}
				if keyEq && in.HashRowOn(x, rs.Key, HashSeed) != in.HashRowOn(y, rs.Key, HashSeed) {
					t.Fatalf("key-equal facts %d,%d hash differently", x, y)
				}
			}
		}
	}
	if got, want := in.KeyEqualGroups(), refKeyEqualGroups(in.Schema(), ref); !groupsEqual(got, want) {
		t.Fatalf("KeyEqualGroups differ from the reference partition\n got: %v\nwant: %v", got, want)
	}
}

// refKeyEqualGroups partitions the reference facts by their Tuple.Key
// strings, in the KeyEqualGroups order (by smallest member).
func refKeyEqualGroups(s *Schema, ref []refFact) []KeyEqualGroup {
	var groups []KeyEqualGroup
	index := map[string]int{}
	for i, rf := range ref {
		rs := s.Relation(rf.rel)
		if !rs.HasKey() {
			groups = append(groups, KeyEqualGroup{Rel: rf.rel, Facts: []FactID{FactID(i)}})
			continue
		}
		k := rf.rel + "\x00" + rf.t.Key(rs.Key)
		gi, ok := index[k]
		if !ok {
			gi = len(groups)
			index[k] = gi
			groups = append(groups, KeyEqualGroup{Rel: rf.rel})
		}
		groups[gi].Facts = append(groups[gi].Facts, FactID(i))
	}
	return groups
}

// TestColumnarRowStoreEquivalent: every accessor of the columnar store
// agrees with a plain row store — the test's own slice of inserted
// tuples — under the Tuple/Value methods. Route-level equivalence of
// the engine over this store is covered by the planner equivalence
// tests.
func TestColumnarRowStoreEquivalent(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		in, ref := buildMixed(seed, 300)
		requireMatchesRef(t, in, ref)
	}
}

// TestCellOfMiss: a string absent from the dictionary reports ok=false
// (no fact can match), while numeric values always encode.
func TestCellOfMiss(t *testing.T) {
	in, _ := buildMixed(3, 50)
	if _, ok := in.Dict().CellOf(Str("never-inserted-string")); ok {
		t.Fatal("cell of an unseen string should miss")
	}
	if _, ok := in.Dict().CellOf(Int(1234567)); !ok {
		t.Fatal("numeric values never miss")
	}
}

// TestRelFactsCaseInsensitive: RelFacts resolves any spelling without
// rebuilding strings, and RelFactsByID matches.
func TestRelFactsCaseInsensitive(t *testing.T) {
	col, _ := buildMixed(7, 60)
	id, ok := col.Schema().RelID("MIX")
	if !ok {
		t.Fatal("RelID(MIX) failed")
	}
	a, b, c := col.RelFacts("Mix"), col.RelFacts("mix"), col.RelFacts("MIX")
	d := col.RelFactsByID(id)
	if len(a) == 0 || len(a) != len(b) || len(b) != len(c) || len(c) != len(d) {
		t.Fatalf("case-insensitive RelFacts disagree: %d/%d/%d/%d", len(a), len(b), len(c), len(d))
	}
	if col.RelFacts("NoSuchRel") != nil {
		t.Fatal("unknown relation should return nil")
	}
}

// TestSubsetPreservesLayout: Subset builds a fresh columnar instance
// (its own dictionary) holding exactly the kept tuples, renumbered
// densely in their original order.
func TestSubsetPreservesLayout(t *testing.T) {
	in, ref := buildMixed(11, 80)
	keep := func(id FactID) bool { return id%2 == 0 }
	sub := in.Subset(keep)
	if sub.Dict() == nil || sub.Dict() == in.Dict() {
		t.Fatal("Subset must build its own dictionary")
	}
	var kept []refFact
	for i, rf := range ref {
		if keep(FactID(i)) {
			kept = append(kept, rf)
		}
	}
	requireMatchesRef(t, sub, kept)
}
