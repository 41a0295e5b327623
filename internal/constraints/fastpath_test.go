package constraints

import (
	"fmt"
	"testing"

	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
	"aggcavsat/internal/xrand"
)

// randomConsInstance builds a two-relation instance with deliberate key
// collisions, exact duplicate rows (key-equal but violation-free), and
// INT values in a FLOAT column (kind-exact key grouping, Compare-based
// attribute comparison).
func randomConsInstance(rng *xrand.Rand, n int) *db.Instance {
	s := db.NewSchema()
	s.MustAddRelation(&db.RelationSchema{
		Name: "R",
		Attrs: []db.Attribute{
			{Name: "k", Kind: db.KindInt},
			{Name: "a", Kind: db.KindFloat},
			{Name: "b", Kind: db.KindString},
		},
		Key: []int{0},
	})
	s.MustAddRelation(&db.RelationSchema{
		Name: "S",
		Attrs: []db.Attribute{
			{Name: "k1", Kind: db.KindString},
			{Name: "k2", Kind: db.KindInt},
			{Name: "v", Kind: db.KindInt},
		},
		Key: []int{0, 1},
	})
	in := db.NewInstance(s)
	for i := 0; i < n; i++ {
		a := db.Value(db.Float(float64(rng.Intn(3))))
		if rng.Bool(0.3) {
			a = db.Int(int64(rng.Intn(3))) // Compare-equal to a Float twin
		}
		if rng.Bool(0.1) {
			a = db.Null()
		}
		in.MustInsert("R", db.Int(int64(rng.Intn(n/3+1))), a, db.Str(fmt.Sprintf("b%d", rng.Intn(2))))
		in.MustInsert("S",
			db.Str(fmt.Sprintf("s%d", rng.Intn(n/4+1))), db.Int(int64(rng.Intn(2))),
			db.Int(int64(rng.Intn(3))))
	}
	return in
}

// MinimalViolationsGeneric is MinimalViolations with the key fast path
// disabled: every DC body is instantiated by the evaluator. It is the
// semantic reference the fast path is checked against.
func MinimalViolationsGeneric(e *cq.Evaluator, dcs []DC) []Violation {
	dedup := newVioDedup()
	for _, dc := range dcs {
		for _, r := range e.Eval(dc.Body()) {
			dedup.add(r.Facts)
		}
	}
	return sortedMinimal(dedup.all)
}

func violationsEqual(a, b []Violation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if compareIDs(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

// TestFastPathMatchesGeneric is the key equivalence property: with the
// complete key-DC family the fast path must reproduce the generic
// result exactly, across randomized instances.
func TestFastPathMatchesGeneric(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		rng := xrand.New(uint64(trial)*48271 + 11)
		in := randomConsInstance(rng, 30+rng.Intn(60))
		dcs, err := SchemaKeyDCs(in.Schema())
		if err != nil {
			t.Fatal(err)
		}
		e := cq.NewEvaluator(in)
		fast := MinimalViolations(e, dcs)
		slow := MinimalViolationsGeneric(e, dcs)
		if !violationsEqual(fast, slow) {
			t.Fatalf("trial %d: fast path differs (%d vs %d)\nfast: %v\nslow: %v",
				trial, len(fast), len(slow), fast, slow)
		}
		// Independent minimality oracle: no violation contains another.
		for i := range fast {
			for j := range fast {
				if i != j && len(fast[i]) < len(fast[j]) && isSubsetIDs(fast[i], fast[j]) {
					t.Fatalf("trial %d: non-minimal violation %v ⊃ %v", trial, fast[j], fast[i])
				}
			}
		}
	}
}

// TestFastPathHybridDCSet mixes the key DCs with a singleton DC whose
// violations subsume key pairs: the merged minimality filter must agree
// with the generic path.
func TestFastPathHybridDCSet(t *testing.T) {
	for trial := 0; trial < 15; trial++ {
		rng := xrand.New(uint64(trial)*69621 + 5)
		in := randomConsInstance(rng, 40)
		dcs, _ := SchemaKeyDCs(in.Schema())
		singleton := DC{
			Name:  "no-b0",
			Atoms: []cq.Atom{{Rel: "R", Args: []cq.Term{cq.V("k"), cq.V("a"), cq.V("b")}}},
			Conds: []cq.Condition{{Left: cq.V("b"), Op: cq.OpEQ, Right: cq.C(db.Str("b0"))}},
		}
		dcs = append(dcs, singleton)
		e := cq.NewEvaluator(in)
		fast := MinimalViolations(e, dcs)
		slow := MinimalViolationsGeneric(e, dcs)
		if !violationsEqual(fast, slow) {
			t.Fatalf("trial %d: hybrid fast path differs (%d vs %d)", trial, len(fast), len(slow))
		}
	}
}

// TestPartialKeyDCSetStaysGeneric drops one DC of a relation's key
// family: the split must send the rest to the generic path (the
// all-pairs shortcut would over-report), and results must match the
// generic reference.
func TestPartialKeyDCSetStaysGeneric(t *testing.T) {
	rng := xrand.New(17)
	in := randomConsInstance(rng, 50)
	rDCs, _ := KeyDCs(in.Schema().Relation("R")) // k -> a and k -> b
	if len(rDCs) != 2 {
		t.Fatalf("expected 2 key DCs for R, got %d", len(rDCs))
	}
	partial := rDCs[:1]
	fastRels, generic := splitKeyDCs(in.Schema(), partial)
	if len(fastRels) != 0 || len(generic) != 1 {
		t.Fatalf("partial key-DC set recognized as fast: fastRels=%v generic=%d", fastRels, len(generic))
	}
	e := cq.NewEvaluator(in)
	if !violationsEqual(MinimalViolations(e, partial), MinimalViolationsGeneric(e, partial)) {
		t.Fatal("partial key-DC set: results differ")
	}
	// The complete family is recognized.
	fastRels, generic = splitKeyDCs(in.Schema(), rDCs)
	if !fastRels["r"] || len(generic) != 0 {
		t.Fatalf("complete key-DC family not recognized: fastRels=%v generic=%d", fastRels, len(generic))
	}
}

// TestRenamedKeyDCStaysGeneric: a semantically equal body with renamed
// variables is not recognized (conservative match) but must still
// produce the same violations through the generic path.
func TestRenamedKeyDCStaysGeneric(t *testing.T) {
	s := db.NewSchema()
	s.MustAddRelation(&db.RelationSchema{
		Name: "T",
		Attrs: []db.Attribute{
			{Name: "k", Kind: db.KindInt},
			{Name: "v", Kind: db.KindInt},
		},
		Key: []int{0},
	})
	renamed := DC{
		Name: "hand-written",
		Atoms: []cq.Atom{
			{Rel: "T", Args: []cq.Term{cq.V("key"), cq.V("x")}},
			{Rel: "T", Args: []cq.Term{cq.V("key"), cq.V("y")}},
		},
		Conds: []cq.Condition{{Left: cq.V("x"), Op: cq.OpNE, Right: cq.V("y")}},
	}
	fastRels, generic := splitKeyDCs(s, []DC{renamed})
	if len(fastRels) != 0 || len(generic) != 1 {
		t.Fatalf("renamed DC misclassified: fastRels=%v", fastRels)
	}
	in := db.NewInstance(s)
	in.MustInsert("T", db.Int(1), db.Int(10))
	in.MustInsert("T", db.Int(1), db.Int(20))
	e := cq.NewEvaluator(in)
	vs := MinimalViolations(e, []DC{renamed})
	if len(vs) != 1 || len(vs[0]) != 2 {
		t.Fatalf("violations = %v", vs)
	}
}

// TestCachedConstraints checks CachedConstraintsInfo against a direct
// computation, before and after an insert: it memoizes nothing, so an
// insert is always seen.
func TestCachedConstraints(t *testing.T) {
	rng := xrand.New(23)
	in := randomConsInstance(rng, 40)
	dcs, _ := SchemaKeyDCs(in.Schema())
	e := cq.NewEvaluator(in)
	v1, n1, hit := CachedConstraintsInfo(e, dcs)
	if hit {
		t.Error("CachedConstraintsInfo reported a memo hit")
	}
	if !violationsEqual(v1, MinimalViolations(e, dcs)) {
		t.Error("violations differ from direct computation")
	}
	if n1 == nil || len(n1.InViolation) != in.NumFacts() {
		t.Error("near-violation index not sized to the instance")
	}
	in.MustInsert("R", db.Int(0), db.Float(99), db.Str("zzz"))
	e2 := cq.NewEvaluator(in)
	v2, n2, _ := CachedConstraintsInfo(e2, dcs)
	if n2 == nil || len(n2.InViolation) != in.NumFacts() {
		t.Error("post-insert index not rebuilt for the new fact count")
	}
	if !violationsEqual(v2, MinimalViolations(e2, dcs)) {
		t.Error("post-insert violations wrong")
	}
}

func benchConsInstance() (*db.Instance, []DC) {
	rng := xrand.New(4242)
	in := randomConsInstance(rng, 3000)
	dcs, _ := SchemaKeyDCs(in.Schema())
	return in, dcs
}

func BenchmarkMinimalViolations(b *testing.B) {
	in, dcs := benchConsInstance()
	e := cq.NewEvaluator(in)
	MinimalViolations(e, dcs) // warm KeyEqualGroups memo + indexes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MinimalViolations(e, dcs)
	}
}

func BenchmarkMinimalViolationsGeneric(b *testing.B) {
	in, dcs := benchConsInstance()
	e := cq.NewEvaluator(in)
	MinimalViolationsGeneric(e, dcs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MinimalViolationsGeneric(e, dcs)
	}
}
