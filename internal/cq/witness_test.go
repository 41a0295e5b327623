package cq

import (
	"context"
	"testing"

	"aggcavsat/internal/db"
)

func TestWitnessBagMaryBalances(t *testing.T) {
	in := bank()
	e := NewEvaluator(in)
	bag := e.WitnessBag(Single(maryBalances()))
	// Six assignments, six distinct (facts, answer) pairs (Mary's two
	// tuples are distinct facts), so multiplicities are all 1.
	if len(bag) != 6 {
		t.Fatalf("bag size = %d, want 6", len(bag))
	}
	for _, w := range bag {
		if w.Mult != 1 {
			t.Errorf("multiplicity = %d, want 1", w.Mult)
		}
		if len(w.Facts) != 3 {
			t.Errorf("witness size = %d, want 3", len(w.Facts))
		}
	}
}

func TestWitnessBagMultiplicity(t *testing.T) {
	// Two assignments projecting to the same answer and same fact set:
	// R(a,b) with head just a, joined against S twice via distinct vars
	// collapsing to the same facts.
	s := db.NewSchema()
	s.MustAddRelation(&db.RelationSchema{
		Name:  "R",
		Attrs: []db.Attribute{{Name: "a", Kind: db.KindInt}, {Name: "b", Kind: db.KindInt}},
	})
	in := db.NewInstance(s)
	in.MustInsert("R", db.Int(1), db.Int(10))
	in.MustInsert("R", db.Int(1), db.Int(20))
	e := NewEvaluator(in)
	// q() :- R(x, y): two assignments; head empty, distinct fact sets.
	bag := e.WitnessBag(Single(CQ{Atoms: []Atom{{Rel: "R", Args: []Term{V("x"), V("y")}}}}))
	if len(bag) != 2 {
		t.Fatalf("bag size = %d, want 2", len(bag))
	}
	// q() :- R(x, y), R(x, z): 4 assignments; fact-set {0} (y=z=10),
	// {1} (y=z=20), {0,1} twice (y=10,z=20 and y=20,z=10).
	bag = e.WitnessBag(Single(CQ{Atoms: []Atom{
		{Rel: "R", Args: []Term{V("x"), V("y")}},
		{Rel: "R", Args: []Term{V("x"), V("z")}},
	}}))
	if len(bag) != 3 {
		t.Fatalf("bag size = %d, want 3", len(bag))
	}
	var multTwo int
	for _, w := range bag {
		if w.Mult == 2 {
			multTwo++
			if len(w.Facts) != 2 {
				t.Errorf("the doubled witness should be {0,1}, got %v", w.Facts)
			}
		}
	}
	if multTwo != 1 {
		t.Errorf("exactly one witness should have multiplicity 2")
	}
}

func TestWitnessBagSeparatesAnswers(t *testing.T) {
	// Same fact set, different answers (via union projecting different
	// columns) must remain separate witnesses.
	s := db.NewSchema()
	s.MustAddRelation(&db.RelationSchema{
		Name:  "R",
		Attrs: []db.Attribute{{Name: "a", Kind: db.KindInt}, {Name: "b", Kind: db.KindInt}},
	})
	in := db.NewInstance(s)
	in.MustInsert("R", db.Int(1), db.Int(2))
	e := NewEvaluator(in)
	u := UCQ{Disjuncts: []CQ{
		{Head: []string{"x"}, Atoms: []Atom{{Rel: "R", Args: []Term{V("x"), V("y")}}}},
		{Head: []string{"y"}, Atoms: []Atom{{Rel: "R", Args: []Term{V("x"), V("y")}}}},
	}}
	bag := e.WitnessBag(u)
	if len(bag) != 2 {
		t.Fatalf("bag size = %d, want 2 (answers 1 and 2)", len(bag))
	}
}

func TestMinimalWitnesses(t *testing.T) {
	w1 := Witness{Facts: []db.FactID{1, 2}, Answer: db.Tuple{db.Int(7)}, Mult: 1}
	w2 := Witness{Facts: []db.FactID{1, 2, 3}, Answer: db.Tuple{db.Int(7)}, Mult: 1}
	w3 := Witness{Facts: []db.FactID{4}, Answer: db.Tuple{db.Int(8)}, Mult: 1}
	w4 := Witness{Facts: []db.FactID{1, 2}, Answer: db.Tuple{db.Int(8)}, Mult: 1} // different answer: kept
	out := MinimalWitnesses([]Witness{w1, w2, w3, w4})
	if len(out) != 3 {
		t.Fatalf("minimal set size = %d, want 3 (%v)", len(out), out)
	}
	for _, w := range out {
		if len(w.Facts) == 3 {
			t.Error("non-minimal witness survived")
		}
	}
}

func TestMinimalWitnessesEqualSetsKeptOnce(t *testing.T) {
	w1 := Witness{Facts: []db.FactID{1, 2}, Answer: db.Tuple{db.Int(7)}, Mult: 1}
	w2 := Witness{Facts: []db.FactID{1, 2}, Answer: db.Tuple{db.Int(7)}, Mult: 5}
	out := MinimalWitnesses([]Witness{w1, w2})
	if len(out) != 1 {
		t.Fatalf("equal sets should collapse to one, got %d", len(out))
	}
}

func TestIsSubset(t *testing.T) {
	cases := []struct {
		a, b []db.FactID
		want bool
	}{
		{[]db.FactID{}, []db.FactID{1}, true},
		{[]db.FactID{1}, []db.FactID{1}, true},
		{[]db.FactID{1, 3}, []db.FactID{1, 2, 3}, true},
		{[]db.FactID{1, 4}, []db.FactID{1, 2, 3}, false},
		{[]db.FactID{2}, []db.FactID{}, false},
	}
	for i, c := range cases {
		if got := isSubset(c.a, c.b); got != c.want {
			t.Errorf("case %d: isSubset(%v,%v) = %v", i, c.a, c.b, got)
		}
	}
}

func TestGroupWitnesses(t *testing.T) {
	s := db.NewSchema()
	s.MustAddRelation(&db.RelationSchema{
		Name:  "R",
		Attrs: []db.Attribute{{Name: "city", Kind: db.KindString}, {Name: "v", Kind: db.KindInt}},
	})
	in := db.NewInstance(s)
	in.MustInsert("R", db.Str("SF"), db.Int(20))
	in.MustInsert("R", db.Str("LA"), db.Int(30))
	in.MustInsert("R", db.Str("LA"), db.Int(10))
	q := CQ{Head: []string{"c", "v"}, Atoms: []Atom{{Rel: "R", Args: []Term{V("c"), V("v")}}}}
	groups, err := NewEvaluator(in).WitnessGroups(context.Background(), Single(q), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	if groups[0].Key[0].AsString() != "LA" || len(groups[0].Witnesses) != 2 {
		t.Errorf("LA group wrong: %+v", groups[0])
	}
	if groups[1].Key[0].AsString() != "SF" || groups[1].Witnesses[0].Mult != 1 {
		t.Errorf("SF group wrong: %+v", groups[1])
	}
	// The group-arity suffix stays in the witness answers, and the
	// witnesses come by fact set: LA's 30 (fact 1) before its 10.
	if got := groups[0].Witnesses; got[0].Answer[0].AsInt() != 30 || got[1].Answer[0].AsInt() != 10 {
		t.Errorf("LA witnesses %+v: aggregation values lost or out of fact order", got)
	}
}

func TestGroupWitnessesFullArity(t *testing.T) {
	// groupArity == len(head): suffix answers become empty tuples.
	s := db.NewSchema()
	s.MustAddRelation(&db.RelationSchema{Name: "R", Attrs: []db.Attribute{{Name: "a", Kind: db.KindString}}})
	in := db.NewInstance(s)
	in.MustInsert("R", db.Str("x"))
	q := Single(CQ{Head: []string{"a"}, Atoms: []Atom{{Rel: "R", Args: []Term{V("a")}}}})
	groups, err := NewEvaluator(in).WitnessGroups(context.Background(), q, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 || len(groups[0].Witnesses) != 1 || len(groups[0].Witnesses[0].Answer) != 0 {
		t.Errorf("%+v", groups)
	}
}

func TestCompareFactSets(t *testing.T) {
	if compareFactSets([]db.FactID{1, 2}, []db.FactID{1, 2}) != 0 {
		t.Error("equal")
	}
	if compareFactSets([]db.FactID{1}, []db.FactID{1, 2}) != -1 {
		t.Error("prefix shorter")
	}
	if compareFactSets([]db.FactID{3}, []db.FactID{1, 2}) != 1 {
		t.Error("larger first element")
	}
}
