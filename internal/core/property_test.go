package core

import (
	"fmt"
	"testing"

	"aggcavsat/internal/constraints"
	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
	"aggcavsat/internal/exhaustive"
	"aggcavsat/internal/maxsat"
)

// rng is a tiny xorshift64* generator for deterministic random tests.
type rng uint64

func (r *rng) next(n int) int {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = rng(x)
	return int(x % uint64(n))
}

// randomInstance builds a small two-relation instance with controlled
// key violations: R(k, g, v) key k and S(k, w) key k, joinable on k.
func randomInstance(r *rng) *db.Instance {
	s := db.NewSchema()
	s.MustAddRelation(&db.RelationSchema{
		Name: "R",
		Attrs: []db.Attribute{
			{Name: "k", Kind: db.KindInt},
			{Name: "g", Kind: db.KindString},
			{Name: "v", Kind: db.KindInt},
		},
		Key: []int{0},
	})
	s.MustAddRelation(&db.RelationSchema{
		Name: "S",
		Attrs: []db.Attribute{
			{Name: "k", Kind: db.KindInt},
			{Name: "w", Kind: db.KindInt},
		},
		Key: []int{0},
	})
	in := db.NewInstance(s)
	// Instances are sets of facts: never insert the same tuple twice
	// (key-repair semantics and DC-repair semantics only coincide on
	// duplicate-free instances).
	seen := map[string]bool{}
	insertOnce := func(rel string, vals ...db.Value) {
		k := rel + "|" + db.Tuple(vals).Key(positionsFor(len(vals)))
		if seen[k] {
			return
		}
		seen[k] = true
		in.MustInsert(rel, vals...)
	}
	groupNames := []string{"a", "b"}
	nKeys := 2 + r.next(3) // 2..4 distinct R keys
	for k := 0; k < nKeys; k++ {
		alts := 1 + r.next(3) // group sizes 1..3
		for a := 0; a < alts; a++ {
			insertOnce("R",
				db.Int(int64(k)),
				db.Str(groupNames[r.next(len(groupNames))]),
				db.Int(int64(r.next(9)-4))) // values in [-4, 4]
		}
	}
	nSKeys := 1 + r.next(3)
	for k := 0; k < nSKeys; k++ {
		alts := 1 + r.next(2)
		for a := 0; a < alts; a++ {
			insertOnce("S", db.Int(int64(k)), db.Int(int64(r.next(7)-3)))
		}
	}
	return in
}

func positionsFor(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// joinQuery returns SELECT f(v) FROM R ⋈ S [GROUP BY g].
func joinQuery(op cq.AggOp, grouped bool) cq.AggQuery {
	q := cq.AggQuery{
		Op:     op,
		AggVar: "v",
		Underlying: cq.Single(cq.CQ{
			Atoms: []cq.Atom{
				{Rel: "R", Args: []cq.Term{cq.V("k"), cq.V("g"), cq.V("v")}},
				{Rel: "S", Args: []cq.Term{cq.V("k"), cq.V("w")}},
			},
		}),
	}
	if grouped {
		q.GroupBy = []string{"g"}
	}
	return q
}

// singleRelQuery returns SELECT f(v) FROM R [GROUP BY g].
func singleRelQuery(op cq.AggOp, grouped bool) cq.AggQuery {
	q := cq.AggQuery{
		Op:     op,
		AggVar: "v",
		Underlying: cq.Single(cq.CQ{
			Atoms: []cq.Atom{{Rel: "R", Args: []cq.Term{cq.V("k"), cq.V("g"), cq.V("v")}}},
		}),
	}
	if grouped {
		q.GroupBy = []string{"g"}
	}
	return q
}

func compareReports(t *testing.T, label string, got *Report, want []exhaustive.GroupRange) {
	t.Helper()
	if len(got.Answers) != len(want) {
		t.Fatalf("%s: %d answers, exhaustive has %d\n got: %+v\nwant: %+v",
			label, len(got.Answers), len(want), got.Answers, want)
	}
	for i, a := range got.Answers {
		w := want[i]
		if a.Key.Compare(w.Key) != 0 {
			t.Fatalf("%s: answer %d key %v, want %v", label, i, a.Key, w.Key)
		}
		if !valuesMatch(a.GLB, w.GLB) || !valuesMatch(a.LUB, w.LUB) {
			t.Fatalf("%s: answer %d (key %v) range [%v,%v], exhaustive [%v,%v]",
				label, i, a.Key, a.GLB, a.LUB, w.GLB, w.LUB)
		}
		if a.EmptyPossible != w.EmptyPossible {
			t.Fatalf("%s: answer %d EmptyPossible %v, exhaustive %v",
				label, i, a.EmptyPossible, w.EmptyPossible)
		}
	}
}

func valuesMatch(a, b db.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() == b.IsNull()
	}
	return a.Equal(b)
}

// TestRandomAgainstExhaustiveKeys is the central soundness test of the
// whole system: on hundreds of random inconsistent instances, for every
// supported operator, scalar and grouped, the SAT pipeline must agree
// exactly with brute-force repair enumeration, with group elimination
// on and off.
func TestRandomAgainstExhaustiveKeys(t *testing.T) {
	ops := []cq.AggOp{cq.CountStar, cq.Count, cq.Sum, cq.CountDistinct, cq.SumDistinct, cq.Min, cq.Max}
	trials := 60
	if testing.Short() {
		trials = 15
	}
	for seed := 1; seed <= trials; seed++ {
		r := rng(seed*2654435761 + 1)
		in := randomInstance(&r)
		eng, err := New(in, Options{Mode: KeysMode})
		if err != nil {
			t.Fatal(err)
		}
		solver, err := New(in, Options{Mode: KeysMode})
		if err != nil {
			t.Fatal(err)
		}
		noElimination(solver)
		for _, op := range ops {
			for _, grouped := range []bool{false, true} {
				for qi, q := range []cq.AggQuery{singleRelQuery(op, grouped), joinQuery(op, grouped)} {
					label := fmt.Sprintf("seed %d op %v grouped %v query %d", seed, op, grouped, qi)
					want, err := exhaustive.RangeAnswers(in, q, exhaustive.Options{Mode: exhaustive.ModeKeys})
					if err != nil {
						t.Fatalf("%s: exhaustive: %v", label, err)
					}
					for _, e := range []*Engine{eng, solver} {
						got, err := e.RangeAnswers(q)
						if err != nil {
							t.Fatalf("%s: engine: %v", label, err)
						}
						compareReports(t, label, got, want)
					}
				}
			}
		}
	}
}

// TestRandomAgainstExhaustiveDCs does the same under denial constraints:
// the schema keys expressed as DCs plus a value-ban DC, exercising
// Reduction V.1 end to end (including maximality clauses).
func TestRandomAgainstExhaustiveDCs(t *testing.T) {
	ops := []cq.AggOp{cq.CountStar, cq.Sum, cq.CountDistinct, cq.Min}
	trials := 30
	if testing.Short() {
		trials = 8
	}
	for seed := 1; seed <= trials; seed++ {
		r := rng(seed*40503 + 7)
		in := randomInstance(&r)
		dcs, err := constraints.SchemaKeyDCs(in.Schema())
		if err != nil {
			t.Fatal(err)
		}
		// Value ban: no R-tuple may carry v = -4 (a singleton DC, like
		// the Medigap webAddr constraint).
		dcs = append(dcs, constraints.DC{
			Name:  "ban-minus4",
			Atoms: []cq.Atom{{Rel: "R", Args: []cq.Term{cq.V("k"), cq.V("g"), cq.V("v")}}},
			Conds: []cq.Condition{{Left: cq.V("v"), Op: cq.OpEQ, Right: cq.C(db.Int(-4))}},
		})
		eng, err := New(in, Options{Mode: DCMode, DCs: dcs})
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range ops {
			for _, grouped := range []bool{false, true} {
				q := joinQuery(op, grouped)
				label := fmt.Sprintf("dc seed %d op %v grouped %v", seed, op, grouped)
				want, err := exhaustive.RangeAnswers(in, q, exhaustive.Options{Mode: exhaustive.ModeDCs, DCs: dcs})
				if err != nil {
					t.Fatalf("%s: exhaustive: %v", label, err)
				}
				got, err := eng.RangeAnswers(q)
				if err != nil {
					t.Fatalf("%s: engine: %v", label, err)
				}
				compareReports(t, label, got, want)
			}
		}
	}
}

// TestKeysAsDCsAgree checks that KeysMode and DCMode with the equivalent
// DC set produce identical answers (the Section V claim that α-clause
// replacement preserves the reduction).
func TestKeysAsDCsAgree(t *testing.T) {
	for seed := 1; seed <= 20; seed++ {
		r := rng(seed*7919 + 3)
		in := randomInstance(&r)
		dcs, err := constraints.SchemaKeyDCs(in.Schema())
		if err != nil {
			t.Fatal(err)
		}
		keyEng, _ := New(in, Options{Mode: KeysMode})
		dcEng, err := New(in, Options{Mode: DCMode, DCs: dcs})
		if err != nil {
			t.Fatal(err)
		}
		for _, grouped := range []bool{false, true} {
			q := joinQuery(cq.Sum, grouped)
			a, err := keyEng.RangeAnswers(q)
			if err != nil {
				t.Fatal(err)
			}
			b, err := dcEng.RangeAnswers(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Answers) != len(b.Answers) {
				t.Fatalf("seed %d: %d vs %d answers", seed, len(a.Answers), len(b.Answers))
			}
			for i := range a.Answers {
				if !valuesMatch(a.Answers[i].GLB, b.Answers[i].GLB) ||
					!valuesMatch(a.Answers[i].LUB, b.Answers[i].LUB) {
					t.Fatalf("seed %d answer %d: keys [%v,%v] vs DCs [%v,%v]",
						seed, i,
						a.Answers[i].GLB, a.Answers[i].LUB,
						b.Answers[i].GLB, b.Answers[i].LUB)
				}
			}
		}
	}
}

// TestSolversAgree pins MaxHS's RC2 fallback through the full reduction
// pipeline: with group elimination off and a hitting-set node budget of
// 1 every exact hitting-set search aborts, so RC2 answers the passes
// that need one, and the ranges must still equal repair enumeration
// (internal/exhaustive).
func TestSolversAgree(t *testing.T) {
	fallbacks := 0
	for seed := 1; seed <= 15; seed++ {
		r := rng(seed*104729 + 11)
		in := randomInstance(&r)
		eng, err := New(in, Options{Mode: KeysMode, Explain: true, MaxSAT: maxsat.Options{HSNodeBudget: 1}})
		if err != nil {
			t.Fatal(err)
		}
		noElimination(eng)
		q := joinQuery(cq.Sum, true)
		got, err := eng.RangeAnswers(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := exhaustive.RangeAnswers(in, q, exhaustive.Options{Mode: exhaustive.ModeKeys})
		if err != nil {
			t.Fatal(err)
		}
		compareReports(t, fmt.Sprintf("seed %d", seed), got, want)
		for _, ce := range got.Explain.Components {
			for _, d := range ce.Directions {
				if d.Algorithm == maxsat.AlgRC2.String() {
					fallbacks++
				}
			}
		}
	}
	if fallbacks == 0 {
		t.Error("no solver pass fell back to RC2; the test does not exercise the fallback")
	}
}

// TestConsistentAnswersAgainstExhaustive verifies CONS(q) against repair
// enumeration for the underlying (non-aggregate) query.
func TestConsistentAnswersAgainstExhaustive(t *testing.T) {
	u := consQuery()
	for seed := 1; seed <= 40; seed++ {
		r := rng(seed*6700417 + 5)
		in := randomInstance(&r)
		eng, _ := New(in, Options{Mode: KeysMode})
		got, _, err := eng.ConsistentAnswers(u)
		if err != nil {
			t.Fatal(err)
		}
		requireConsMatches(t, fmt.Sprintf("seed %d", seed), got, exhaustiveCons(t, in, u))
	}
}

// consQuery is the single-head join whose CONS the consistency tests
// check.
func consQuery() cq.UCQ {
	return cq.Single(cq.CQ{
		Head: []string{"g"},
		Atoms: []cq.Atom{
			{Rel: "R", Args: []cq.Term{cq.V("k"), cq.V("g"), cq.V("v")}},
			{Rel: "S", Args: []cq.Term{cq.V("k"), cq.V("w")}},
		},
	})
}

// exhaustiveCons computes CONS(u) for a single-head query by
// intersecting its answers across every key repair, keyed by the
// answer's Tuple.Key.
func exhaustiveCons(t *testing.T, in *db.Instance, u cq.UCQ) map[string]db.Tuple {
	t.Helper()
	first := true
	inter := map[string]db.Tuple{}
	rows := cq.NewEvaluator(in).EvalUCQ(u)
	err := exhaustive.RepairsKeys(in, func(keep []bool) bool {
		local := map[string]db.Tuple{}
		for _, row := range rows {
			alive := true
			for _, f := range row.Facts {
				if !keep[f] {
					alive = false
					break
				}
			}
			if alive {
				local[row.Head.Key([]int{0})] = row.Head
			}
		}
		if first {
			inter = local
			first = false
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

// requireConsMatches asserts that the engine's consistent answers are
// exactly the exhaustive set.
func requireConsMatches(t *testing.T, label string, got []db.Tuple, want map[string]db.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: CONS size %d, exhaustive %d (%v vs %v)", label, len(got), len(want), got, want)
	}
	for _, g := range got {
		if _, ok := want[g.Key([]int{0})]; !ok {
			t.Fatalf("%s: spurious consistent answer %v", label, g)
		}
	}
}
