package core

import (
	"fmt"
	"strings"
	"testing"

	"aggcavsat/internal/constraints"
	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
	"aggcavsat/internal/exhaustive"
)

// foldInstance builds R(k, g, v) key k and S(k, w) key k where the group
// column g is FLOAT-typed, so it holds Int(1) and Float(1) side by side
// (Compare-equal, but different group keys), plus Int(7) and NULL; v
// ranges over negative, zero, positive and NULL values. Besides the
// random part it always holds
//   - key 100: one R and one S fact in group Int(7), a group whose only
//     witness is safe;
//   - keys 101 (two conflicting R facts) and 102 (one R fact), both in
//     group Int(1) and joined by single S facts: a group with a safe
//     and a conflicting witness.
func foldInstance(r *rng) *db.Instance {
	s := db.NewSchema()
	s.MustAddRelation(&db.RelationSchema{
		Name: "R",
		Attrs: []db.Attribute{
			{Name: "k", Kind: db.KindInt},
			{Name: "g", Kind: db.KindFloat},
			{Name: "v", Kind: db.KindInt},
		},
		Key: []int{0},
	})
	s.MustAddRelation(&db.RelationSchema{
		Name:  "S",
		Attrs: []db.Attribute{{Name: "k", Kind: db.KindInt}, {Name: "w", Kind: db.KindInt}},
		Key:   []int{0},
	})
	in := db.NewInstance(s)
	seen := map[string]bool{}
	insertOnce := func(rel string, vals ...db.Value) {
		k := rel + "|" + db.Tuple(vals).Key(positionsFor(len(vals)))
		if !seen[k] {
			seen[k] = true
			in.MustInsert(rel, vals...)
		}
	}
	groups := []db.Value{db.Int(1), db.Float(1), db.Int(7), db.Null()}
	value := func() db.Value {
		if r.next(6) == 0 {
			return db.Null()
		}
		return db.Int(int64(r.next(7) - 3)) // [-3, 3]
	}
	for k := 0; k < 3+r.next(3); k++ {
		for a := 0; a < 1+r.next(3); a++ {
			insertOnce("R", db.Int(int64(k)), groups[r.next(len(groups))], value())
		}
		for a := 0; a < 1+r.next(2); a++ {
			insertOnce("S", db.Int(int64(k)), db.Int(int64(r.next(3))))
		}
	}
	insertOnce("R", db.Int(100), db.Int(7), db.Int(5))
	insertOnce("S", db.Int(100), db.Int(0))
	insertOnce("R", db.Int(101), db.Int(1), db.Int(-2))
	insertOnce("R", db.Int(101), db.Int(1), db.Int(4))
	insertOnce("S", db.Int(101), db.Int(0))
	insertOnce("R", db.Int(102), db.Int(1), db.Int(3))
	insertOnce("S", db.Int(102), db.Int(0))
	return in
}

// foldMode is one repair semantics of the fold oracle: the engine
// options and the matching exhaustive enumeration.
type foldMode struct {
	name string
	opts Options
	ex   exhaustive.Options
}

func foldModes(t *testing.T, in *db.Instance) []foldMode {
	dcs, err := constraints.SchemaKeyDCs(in.Schema())
	if err != nil {
		t.Fatal(err)
	}
	// A value ban makes some single facts unsafe in DC mode.
	dcs = append(dcs, constraints.DC{
		Name:  "ban-minus3",
		Atoms: []cq.Atom{{Rel: "R", Args: []cq.Term{cq.V("k"), cq.V("g"), cq.V("v")}}},
		Conds: []cq.Condition{{Left: cq.V("v"), Op: cq.OpEQ, Right: cq.C(db.Int(-3))}},
	})
	return []foldMode{
		{"keys", Options{Mode: KeysMode}, exhaustive.Options{Mode: exhaustive.ModeKeys}},
		{"dc", Options{Mode: DCMode, DCs: dcs}, exhaustive.Options{Mode: exhaustive.ModeDCs, DCs: dcs}},
	}
}

// TestFoldAgainstExhaustive is the fold oracle: with the consistent part
// folded inside the evaluator, scalar and grouped COUNT(*), COUNT(A) and
// SUM(A), and CONS of the underlying query, must equal repair
// enumeration in keys and DC mode at parallelism 1 and 4. Answers are
// matched by exact group key, so Int(1) and Float(1) must stay apart.
func TestFoldAgainstExhaustive(t *testing.T) {
	trials := 25
	if testing.Short() {
		trials = 8
	}
	var folded, mixed int64
	for seed := 1; seed <= trials; seed++ {
		r := rng(seed*2246822519 + 13)
		in := foldInstance(&r)
		for _, m := range foldModes(t, in) {
			for _, par := range []int{1, 4} {
				opts := m.opts
				opts.Parallelism = par
				eng, err := New(in, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, op := range []cq.AggOp{cq.CountStar, cq.Count, cq.Sum} {
					for _, grouped := range []bool{false, true} {
						for qi, q := range []cq.AggQuery{singleRelQuery(op, grouped), joinQuery(op, grouped)} {
							label := fmt.Sprintf("seed %d %s par %d %v grouped %v query %d", seed, m.name, par, op, grouped, qi)
							want, err := exhaustive.RangeAnswers(in, q, m.ex)
							if err != nil {
								t.Fatalf("%s: exhaustive: %v", label, err)
							}
							got, err := eng.RangeAnswers(q)
							if err != nil {
								t.Fatalf("%s: engine: %v", label, err)
							}
							requireExactAnswers(t, label, got.Answers, want)
							folded += got.Stats.FoldedAssignments
							if grouped && hasMixedGroup(got.Answers) {
								mixed++
							}
						}
					}
				}
				u := cq.Single(cq.CQ{Head: []string{"g"}, Atoms: joinQuery(cq.CountStar, false).Underlying.Disjuncts[0].Atoms})
				got, st, err := eng.ConsistentAnswers(u)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("seed %d %s par %d CONS", seed, m.name, par)
				requireExactCons(t, label, got, exhaustiveConsWith(t, in, u, m.ex))
				folded += st.FoldedAssignments
			}
		}
	}
	if folded == 0 {
		t.Error("no assignment was folded; the oracle does not exercise the fold")
	}
	if mixed == 0 {
		t.Error("no grouped answer held both Int(1) and Float(1); the key-equivalence case is not exercised")
	}
}

// hasMixedGroup reports whether the answers carry both Int(1) and
// Float(1) as group keys.
func hasMixedGroup(as []GroupAnswer) bool {
	var i, f bool
	for _, a := range as {
		if len(a.Key) == 1 && a.Key[0].Equal(db.Int(1)) {
			i = i || a.Key[0].Kind() == db.KindInt
			f = f || a.Key[0].Kind() == db.KindFloat
		}
	}
	return i && f
}

// requireExactAnswers matches answers to exhaustive ranges by the
// kind-exact group key (Tuple.Key), not by position or Compare.
func requireExactAnswers(t *testing.T, label string, got []GroupAnswer, want []exhaustive.GroupRange) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers, exhaustive has %d\n got: %+v\nwant: %+v", label, len(got), len(want), got, want)
	}
	byKey := map[string]exhaustive.GroupRange{}
	for _, w := range want {
		byKey[w.Key.Key(positionsFor(len(w.Key)))] = w
	}
	for _, a := range got {
		w, ok := byKey[a.Key.Key(positionsFor(len(a.Key)))]
		if !ok {
			t.Fatalf("%s: answer key %v (%s) not in exhaustive %+v", label, a.Key, a.Key[0].Kind(), want)
		}
		if !valuesMatch(a.GLB, w.GLB) || !valuesMatch(a.LUB, w.LUB) {
			t.Fatalf("%s: key %v range [%v,%v], exhaustive [%v,%v]", label, a.Key, a.GLB, a.LUB, w.GLB, w.LUB)
		}
	}
}

// exhaustiveConsWith computes CONS(u) of a one-column head by
// intersecting the answers of every repair under the given semantics,
// keyed by the kind-exact Tuple.Key.
func exhaustiveConsWith(t *testing.T, in *db.Instance, u cq.UCQ, ex exhaustive.Options) map[string]db.Tuple {
	t.Helper()
	if ex.Mode == exhaustive.ModeKeys {
		return exhaustiveCons(t, in, u)
	}
	e := cq.NewEvaluator(in)
	rows := e.EvalUCQ(u)
	var inter map[string]db.Tuple
	err := exhaustive.RepairsDCs(in, constraints.MinimalViolations(e, ex.DCs), func(keep []bool) bool {
		local := map[string]db.Tuple{}
		for _, row := range rows {
			alive := true
			for _, f := range row.Facts {
				alive = alive && keep[f]
			}
			if alive {
				local[row.Head.Key([]int{0})] = row.Head
			}
		}
		if inter == nil {
			inter = local
			return true
		}
		for k := range inter {
			if _, ok := local[k]; !ok {
				delete(inter, k)
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return inter
}

// requireExactCons is requireConsMatches with a check that no two
// answers share a kind-exact key.
func requireExactCons(t *testing.T, label string, got []db.Tuple, want map[string]db.Tuple) {
	t.Helper()
	requireConsMatches(t, label, got, want)
	seen := map[string]bool{}
	for _, g := range got {
		k := g.Key([]int{0})
		if seen[k] {
			t.Fatalf("%s: answer %v reported twice", label, g)
		}
		seen[k] = true
	}
}

// TestFoldNonIntegerSum checks that a float in a SUM witness fails with
// the non-integer error whether the witness is safe (folded) or
// conflicting (materialized), scalar and grouped.
func TestFoldNonIntegerSum(t *testing.T) {
	for _, conflicting := range []bool{false, true} {
		s := db.NewSchema()
		s.MustAddRelation(&db.RelationSchema{
			Name: "R",
			Attrs: []db.Attribute{
				{Name: "k", Kind: db.KindInt},
				{Name: "g", Kind: db.KindString},
				{Name: "v", Kind: db.KindFloat},
			},
			Key: []int{0},
		})
		in := db.NewInstance(s)
		in.MustInsert("R", db.Int(1), db.Str("a"), db.Int(2))
		in.MustInsert("R", db.Int(2), db.Str("a"), db.Float(1.5))
		if conflicting {
			in.MustInsert("R", db.Int(2), db.Str("a"), db.Int(3))
		}
		eng, err := New(in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, grouped := range []bool{false, true} {
			_, err := eng.RangeAnswers(singleRelQuery(cq.Sum, grouped))
			if err == nil || !strings.Contains(err.Error(), "core: SUM over non-integer value 1.5") {
				t.Errorf("conflicting %v grouped %v: err = %v, want the non-integer SUM error", conflicting, grouped, err)
			}
		}
	}
}
