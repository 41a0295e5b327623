package cq

import (
	"context"
	"reflect"
	"testing"

	"aggcavsat/internal/db"
	"aggcavsat/internal/xrand"
)

// TestFoldedBagPartitionsTheBag checks WitnessGroups with a fold
// against the plain witness bag: each group holds exactly the bag
// entries of its key touching an unsafe fact, and its fold is the
// exact-key aggregate of the rest. The grouping column mixes INT and
// FLOAT values, so Int(1) and Float(1) must fold into different groups.
// The result must not depend on the parallelism setting, fold order and
// first non-integer value included.
func TestFoldedBagPartitionsTheBag(t *testing.T) {
	rng := xrand.New(31)
	in := randomEvalInstance(rng, 900)
	safe := func(f db.FactID) bool { return f%5 != 0 }
	atoms := []Atom{
		{Rel: "R", Args: []Term{V("x"), V("g"), V("v")}},
		{Rel: "S", Args: []Term{V("x"), V("w")}},
	}
	for _, tc := range []struct {
		head  []string
		arity int
	}{
		{[]string{"v", "w"}, 1}, // INT/FLOAT group keys, integer values
		{[]string{"g", "v"}, 1}, // non-integer values
		{[]string{"v"}, 0},      // scalar
		{[]string{"g", "v"}, 2}, // no aggregated value
	} {
		q := CQ{Head: tc.head, Atoms: atoms}
		full := evalBag(NewEvaluator(in), q)
		var seq []WitnessGroup
		for _, par := range []int{1, 4} {
			e := NewEvaluator(in)
			e.SetParallelism(par)
			checkFolded(t, e, q, full, safe, tc.arity)
			groups, err := e.WitnessGroups(context.Background(), Single(q), tc.arity, safe)
			if err != nil {
				t.Fatal(err)
			}
			if par == 1 {
				seq = groups
			} else if !reflect.DeepEqual(groups, seq) {
				t.Fatalf("head %v: parallel groups differ from sequential", tc.head)
			}
		}
	}
}

// TestGroupFoldedExactKeys pins the group equivalence: in a FLOAT
// column holding both Int(1) and Float(1), the two are different groups
// even though they Compare equal, a folded assignment joins the group
// of its exactly equal key, and a key with only folded assignments is a
// group too. The Compare tie is broken by kind (INT first), whatever
// the insertion order.
func TestGroupFoldedExactKeys(t *testing.T) {
	type fact struct {
		g    db.Value
		v    int64
		safe bool
	}
	facts := []fact{
		{db.Int(1), 10, false},
		{db.Float(1), 20, false},
		{db.Float(1), 4, true},
		{db.Float(1), 5, true},
		{db.Int(2), 7, true},
	}
	for _, order := range [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}} {
		s := db.NewSchema()
		s.MustAddRelation(&db.RelationSchema{
			Name:  "R",
			Attrs: []db.Attribute{{Name: "k", Kind: db.KindInt}, {Name: "g", Kind: db.KindFloat}, {Name: "v", Kind: db.KindInt}},
			Key:   []int{0},
		})
		in := db.NewInstance(s)
		safe := map[db.FactID]bool{}
		for _, i := range order {
			f := in.MustInsert("R", db.Int(int64(i)), facts[i].g, db.Int(facts[i].v))
			safe[f] = facts[i].safe
		}
		q := Single(CQ{Head: []string{"g", "v"}, Atoms: []Atom{{Rel: "R", Args: []Term{V("k"), V("g"), V("v")}}}})
		groups, err := NewEvaluator(in).WitnessGroups(context.Background(), q, 1, func(f db.FactID) bool { return safe[f] })
		if err != nil {
			t.Fatal(err)
		}
		if len(groups) != 3 {
			t.Fatalf("order %v: %d groups, want 3: %+v", order, len(groups), groups)
		}
		want := []struct {
			key       db.Value
			witnesses int
			fold      Fold
		}{
			{db.Int(1), 1, Fold{}},
			{db.Float(1), 1, Fold{Rows: 2, NonNull: 2, Sum: 9}},
			{db.Int(2), 0, Fold{Rows: 1, NonNull: 1, Sum: 7}},
		}
		for i, w := range want {
			g := groups[i]
			if !g.Key.EqualExact(db.Tuple{w.key}) || len(g.Witnesses) != w.witnesses || g.Fold != w.fold {
				t.Errorf("order %v: group %d = %+v, want key %v, %d witnesses, fold %+v", order, i, g, w.key, w.witnesses, w.fold)
			}
			for _, wit := range g.Witnesses {
				if len(wit.Answer) != 1 || wit.Mult != 1 {
					t.Errorf("order %v: group %v witness %+v: want the value suffix, multiplicity 1", order, g.Key, wit)
				}
			}
		}
	}
}

func headPositions(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}
