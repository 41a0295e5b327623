package constraints

import (
	"slices"
	"strings"
	"testing"

	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
	"aggcavsat/internal/xrand"
)

func twoColSchema() *db.Schema {
	s := db.NewSchema()
	s.MustAddRelation(&db.RelationSchema{
		Name: "R",
		Attrs: []db.Attribute{
			{Name: "k", Kind: db.KindString},
			{Name: "a", Kind: db.KindInt},
			{Name: "b", Kind: db.KindString},
		},
		Key: []int{0},
	})
	return s
}

func TestFDConstruction(t *testing.T) {
	s := twoColSchema()
	dcs, err := FD(s.Relation("R"), []string{"k"}, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if len(dcs) != 2 {
		t.Fatalf("got %d DCs, want 2", len(dcs))
	}
	for _, dc := range dcs {
		if err := dc.Validate(s); err != nil {
			t.Errorf("%s invalid: %v", dc.Name, err)
		}
		if len(dc.Atoms) != 2 || len(dc.Conds) != 1 || dc.Conds[0].Op != cq.OpNE {
			t.Errorf("FD shape wrong: %s", dc)
		}
	}
}

func TestFDUnknownAttr(t *testing.T) {
	s := twoColSchema()
	if _, err := FD(s.Relation("R"), []string{"nope"}, "a"); err == nil {
		t.Error("unknown LHS accepted")
	}
	if _, err := FD(s.Relation("R"), []string{"k"}, "nope"); err == nil {
		t.Error("unknown RHS accepted")
	}
}

func TestKeyDCs(t *testing.T) {
	s := twoColSchema()
	dcs, err := KeyDCs(s.Relation("R"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dcs) != 2 { // k -> a and k -> b
		t.Fatalf("got %d key DCs, want 2", len(dcs))
	}
	// No-key relation: nil.
	s2 := db.NewSchema()
	s2.MustAddRelation(&db.RelationSchema{Name: "S", Attrs: []db.Attribute{{Name: "x", Kind: db.KindInt}}})
	dcs, err = KeyDCs(s2.Relation("S"))
	if err != nil || dcs != nil {
		t.Error("no-key relation should produce no DCs")
	}
	// All-attribute key: duplicates impossible (set semantics), nil.
	s3 := db.NewSchema()
	s3.MustAddRelation(&db.RelationSchema{
		Name:  "T",
		Attrs: []db.Attribute{{Name: "x", Kind: db.KindInt}},
		Key:   []int{0},
	})
	dcs, err = KeyDCs(s3.Relation("T"))
	if err != nil || dcs != nil {
		t.Error("all-attribute key should produce no DCs")
	}
}

func TestMinimalViolationsKeys(t *testing.T) {
	s := twoColSchema()
	in := db.NewInstance(s)
	in.MustInsert("R", db.Str("k1"), db.Int(1), db.Str("x")) // 0
	in.MustInsert("R", db.Str("k1"), db.Int(2), db.Str("x")) // 1: violates k->a with 0
	in.MustInsert("R", db.Str("k2"), db.Int(3), db.Str("y")) // 2: consistent
	in.MustInsert("R", db.Str("k1"), db.Int(1), db.Str("z")) // 3: violates k->b with 0, k->a&b with 1
	dcs, _ := SchemaKeyDCs(s)
	e := cq.NewEvaluator(in)
	vs := MinimalViolations(e, dcs)
	// Pairs: {0,1}, {0,3}, {1,3} — all size-2 minimal violations.
	if len(vs) != 3 {
		t.Fatalf("got %d violations, want 3: %v", len(vs), vs)
	}
	for _, v := range vs {
		if len(v) != 2 {
			t.Errorf("violation %v should be a pair", v)
		}
	}
}

func TestMinimalViolationsSingleton(t *testing.T) {
	// DC: ∀t ¬(R(t) ∧ t.b = '') — the Medigap-style single-tuple DC.
	s := twoColSchema()
	in := db.NewInstance(s)
	in.MustInsert("R", db.Str("k1"), db.Int(1), db.Str(""))  // violates
	in.MustInsert("R", db.Str("k2"), db.Int(2), db.Str("w")) // fine
	dc := DC{
		Name:  "nonempty-b",
		Atoms: []cq.Atom{{Rel: "R", Args: []cq.Term{cq.V("k"), cq.V("a"), cq.V("b")}}},
		Conds: []cq.Condition{{Left: cq.V("b"), Op: cq.OpEQ, Right: cq.C(db.Str(""))}},
	}
	if err := dc.Validate(s); err != nil {
		t.Fatal(err)
	}
	e := cq.NewEvaluator(in)
	vs := MinimalViolations(e, []DC{dc})
	if len(vs) != 1 || len(vs[0]) != 1 || vs[0][0] != 0 {
		t.Fatalf("violations = %v", vs)
	}
}

func TestMinimalityFilter(t *testing.T) {
	// Two DCs where one's violations subsume the other's: a singleton
	// violation {0} makes the pair {0,1} non-minimal.
	s := twoColSchema()
	in := db.NewInstance(s)
	in.MustInsert("R", db.Str("k1"), db.Int(1), db.Str("")) // 0
	in.MustInsert("R", db.Str("k1"), db.Int(2), db.Str("")) // 1
	singleton := DC{
		Name:  "no-empty-b",
		Atoms: []cq.Atom{{Rel: "R", Args: []cq.Term{cq.V("k"), cq.V("a"), cq.V("b")}}},
		Conds: []cq.Condition{{Left: cq.V("b"), Op: cq.OpEQ, Right: cq.C(db.Str(""))}},
	}
	keyDCs, _ := SchemaKeyDCs(s)
	e := cq.NewEvaluator(in)
	vs := MinimalViolations(e, append(keyDCs, singleton))
	// {0} and {1} are minimal; the key violation {0,1} is not.
	if len(vs) != 2 {
		t.Fatalf("violations = %v, want the two singletons only", vs)
	}
	for _, v := range vs {
		if len(v) != 1 {
			t.Errorf("non-minimal violation %v survived", v)
		}
	}
}

// refNear is the near-violation index as per-fact lists: fact f's
// near-violations V \ {f}, in violation order.
func refNear(vs []Violation, n int) [][][]db.FactID {
	out := make([][][]db.FactID, n)
	for _, v := range vs {
		if len(v) == 1 {
			continue
		}
		for i, f := range v {
			rest := append(append([]db.FactID{}, v[:i]...), v[i+1:]...)
			out[f] = append(out[f], rest)
		}
	}
	return out
}

// requireNear checks the CSR index against refNear: NumNear, each Near
// and Neighbours (the near-violations run together) for every fact.
func requireNear(t *testing.T, idx *NearViolationIndex, vs []Violation, n int) {
	t.Helper()
	for f, want := range refNear(vs, n) {
		id := db.FactID(f)
		if idx.NumNear(id) != len(want) {
			t.Fatalf("fact %d: %d near-violations, want %d", f, idx.NumNear(id), len(want))
		}
		var all []db.FactID
		for k, w := range want {
			if got := idx.Near(id, k); !slices.Equal(got, w) {
				t.Fatalf("fact %d near-violation %d = %v, want %v", f, k, got, w)
			}
			all = append(all, w...)
		}
		if got := idx.Neighbours(id); !slices.Equal(got, all) {
			t.Fatalf("fact %d neighbours = %v, want %v", f, got, all)
		}
	}
}

func TestBuildNearViolations(t *testing.T) {
	vs := []Violation{{0, 1}, {0, 2}, {3}, {1, 4, 5}}
	idx := BuildNearViolations(vs, 7)
	requireNear(t, idx, vs, 7)
	if idx.NumNear(0) != 2 || idx.Near(1, 0)[0] != 0 || !slices.Equal(idx.Near(1, 1), []db.FactID{4, 5}) {
		t.Errorf("fact 0: %d near-violations; fact 1: %v, %v", idx.NumNear(0), idx.Near(1, 0), idx.Near(1, 1))
	}
	if !idx.SelfViolating[3] {
		t.Error("fact 3 should be self-violating")
	}
	if idx.NumNear(3) != 0 {
		t.Error("self-violating fact should have no set near-violations")
	}
	if !idx.InViolation[0] || !idx.InViolation[3] || idx.InViolation[6] {
		t.Error("InViolation flags wrong")
	}
	if idx.Safe(0) || !idx.Safe(6) {
		t.Error("Safe() wrong")
	}
	// Random minimal-violation-like sets of one to four facts.
	r := xrand.New(7)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(30)
		var vs []Violation
		for i := r.Intn(40); i > 0; i-- {
			v := Violation{}
			for k := 1 + r.Intn(4); k > 0; k-- {
				v = append(v, db.FactID(r.Intn(n)))
			}
			slices.Sort(v)
			vs = append(vs, slices.Compact(v))
		}
		requireNear(t, BuildNearViolations(vs, n), vs, n)
	}
}

func TestCheckConsistent(t *testing.T) {
	s := twoColSchema()
	in := db.NewInstance(s)
	in.MustInsert("R", db.Str("k1"), db.Int(1), db.Str("x"))
	in.MustInsert("R", db.Str("k2"), db.Int(2), db.Str("y"))
	dcs, _ := SchemaKeyDCs(s)
	if !CheckConsistent(in, dcs) {
		t.Error("consistent instance misreported")
	}
	in.MustInsert("R", db.Str("k1"), db.Int(9), db.Str("x"))
	if CheckConsistent(in, dcs) {
		t.Error("inconsistent instance misreported")
	}
}

func TestDCValidateErrors(t *testing.T) {
	s := twoColSchema()
	if err := (DC{Name: "empty"}).Validate(s); err == nil {
		t.Error("atomless DC accepted")
	}
	bad := DC{
		Name:  "bad",
		Atoms: []cq.Atom{{Rel: "Missing", Args: []cq.Term{cq.V("x")}}},
	}
	if err := bad.Validate(s); err == nil {
		t.Error("unknown relation accepted")
	}
}

func TestDCString(t *testing.T) {
	s := twoColSchema()
	dcs, _ := KeyDCs(s.Relation("R"))
	if str := dcs[0].String(); !strings.Contains(str, "R(") || !strings.Contains(str, "<>") {
		t.Errorf("DC string = %q", str)
	}
}

func TestFDSelfPairExcluded(t *testing.T) {
	// A fact never violates an FD with itself (the ≠ condition fails).
	s := twoColSchema()
	in := db.NewInstance(s)
	in.MustInsert("R", db.Str("k1"), db.Int(1), db.Str("x"))
	dcs, _ := SchemaKeyDCs(s)
	e := cq.NewEvaluator(in)
	if vs := MinimalViolations(e, dcs); len(vs) != 0 {
		t.Errorf("self-pair produced violations: %v", vs)
	}
}
