package cq

import (
	"context"
	"reflect"
	"testing"

	"aggcavsat/internal/db"
	"aggcavsat/internal/xrand"
)

// TestFoldedBagPartitionsTheBag checks FoldedBagCtx against the plain
// witness bag: the materialized witnesses are exactly the bag entries
// touching an unsafe fact, in bag order, and the folds are the exact-key
// aggregates of the rest. The grouping column mixes INT and FLOAT
// values, so Int(1) and Float(1) must fold into different groups. The
// result must not depend on the parallelism setting, fold order and
// first non-integer value included, and GroupFolded must attach every
// fold to the group of the exactly equal key.
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
		u := Single(CQ{Head: tc.head, Atoms: atoms})
		full := NewEvaluator(in).WitnessBag(u)
		var wantBag []Witness
		want := map[string]*Fold{}
		for _, w := range full {
			allSafe := true
			for _, f := range w.Facts {
				allSafe = allSafe && safe(f)
			}
			if !allSafe {
				wantBag = append(wantBag, w)
				continue
			}
			k := w.Answer[:tc.arity].Key(headPositions(tc.arity))
			f := want[k]
			if f == nil {
				f = &Fold{}
				want[k] = f
			}
			f.Rows += w.Mult
			if len(w.Answer) > tc.arity {
				if v := w.Answer[tc.arity]; !v.IsNull() {
					f.NonNull += w.Mult
					if v.Kind() == db.KindInt {
						f.Sum += w.Mult * v.AsInt()
					} else {
						f.NonInt = v // presence only: enumeration order differs
					}
				}
			}
		}

		var seqFolds []GroupFold
		for _, par := range []int{1, 4} {
			e := NewEvaluator(in)
			e.SetParallelism(par)
			bag, folds, err := e.FoldedBagCtx(context.Background(), u, safe, tc.arity)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(bag, wantBag) {
				t.Fatalf("head %v par %d: %d materialized witnesses, want %d", tc.head, par, len(bag), len(wantBag))
			}
			if len(folds) != len(want) {
				t.Fatalf("head %v par %d: %d folds, want %d", tc.head, par, len(folds), len(want))
			}
			for _, gf := range folds {
				w := want[gf.Key.Key(headPositions(tc.arity))]
				if w == nil || gf.Rows != w.Rows || gf.NonNull != w.NonNull || gf.Sum != w.Sum || gf.NonInt.IsNull() != w.NonInt.IsNull() {
					t.Fatalf("head %v par %d: fold %v = %+v, want %+v", tc.head, par, gf.Key, gf.Fold, w)
				}
			}
			if par == 1 {
				seqFolds = folds
			} else if !reflect.DeepEqual(folds, seqFolds) {
				t.Fatalf("head %v: parallel folds differ from sequential", tc.head)
			}

			for _, g := range GroupFolded(bag, folds, tc.arity) {
				k := g.Key.Key(headPositions(tc.arity))
				if w := want[k]; (w == nil) != (g.Fold.Rows == 0) || (w != nil && g.Fold.Sum != w.Sum) {
					t.Fatalf("head %v: group %v carries fold %+v, want %+v", tc.head, g.Key, g.Fold, w)
				}
				for _, w := range g.Witnesses {
					if len(w.Answer) != len(tc.head)-tc.arity {
						t.Fatalf("head %v: group %v witness answer %v not the suffix", tc.head, g.Key, w.Answer)
					}
				}
			}
		}
	}
}

// TestGroupFoldedExactKeys pins the group equivalence: Int(1) and
// Float(1) are different groups even though they Compare equal, and a
// fold joins the materialized group of its exactly equal key.
func TestGroupFoldedExactKeys(t *testing.T) {
	bag := []Witness{
		{Facts: []db.FactID{1}, Answer: db.Tuple{db.Int(1), db.Int(10)}, Mult: 1},
		{Facts: []db.FactID{2}, Answer: db.Tuple{db.Float(1), db.Int(20)}, Mult: 2},
	}
	folds := []GroupFold{
		{Key: db.Tuple{db.Float(1)}, Fold: Fold{Rows: 3, Sum: 9}},
		{Key: db.Tuple{db.Int(2)}, Fold: Fold{Rows: 1}},
	}
	groups := GroupFolded(bag, folds, 1)
	if len(groups) != 3 {
		t.Fatalf("%d groups, want 3: %+v", len(groups), groups)
	}
	for _, g := range groups {
		switch {
		case g.Key.EqualExact(db.Tuple{db.Int(1)}):
			if g.Fold.Rows != 0 || len(g.Witnesses) != 1 {
				t.Errorf("Int(1) group = %+v", g)
			}
		case g.Key.EqualExact(db.Tuple{db.Float(1)}):
			if g.Fold.Rows != 3 || len(g.Witnesses) != 1 || g.Witnesses[0].Mult != 2 {
				t.Errorf("Float(1) group = %+v", g)
			}
		case g.Key.EqualExact(db.Tuple{db.Int(2)}):
			if g.Fold.Rows != 1 || len(g.Witnesses) != 0 {
				t.Errorf("Int(2) group = %+v", g)
			}
		default:
			t.Errorf("unexpected group %v", g.Key)
		}
	}
	if groups[2].Key.Compare(db.Tuple{db.Int(2)}) != 0 {
		t.Errorf("groups not sorted by key: %v, %v, %v", groups[0].Key, groups[1].Key, groups[2].Key)
	}
}

func headPositions(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}
