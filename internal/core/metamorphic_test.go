package core

import (
	"fmt"
	"testing"

	"aggcavsat/internal/constraints"
	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
	"aggcavsat/internal/exhaustive"
)

// TestMetamorphicRanges: a range answer is a function of the instance
// as a set of facts and of the query as a conjunction, and of nothing
// else. On random small instances, in keys mode and in DC mode (the
// keys as DCs plus a value ban), every operator's scalar and grouped
// range must be identical with the facts inserted in a shuffled order,
// with each CQ's atoms permuted, and at parallelism 1 and 4, and equal
// to internal/exhaustive's. A consistent instance (one fact kept per
// key-equal group, the banned facts dropped) must give glb = lub =
// cq.EvalAgg's answer for every group.
func TestMetamorphicRanges(t *testing.T) {
	trials := 20
	if testing.Short() {
		trials = 5
	}
	for seed := 1; seed <= trials; seed++ {
		for _, mode := range []ConstraintMode{KeysMode, DCMode} {
			r := rng(seed*104729 + 17)
			in := randomInstance(&r)
			label := fmt.Sprintf("seed %d mode %d", seed, mode)
			checkMetamorphic(t, label, &r, in, mode)
		}
	}
}

// checkMetamorphic runs every operator, scalar and grouped, over one
// instance and its variants.
func checkMetamorphic(t *testing.T, label string, r *rng, in *db.Instance, mode ConstraintMode) {
	t.Helper()
	ops := []cq.AggOp{cq.CountStar, cq.Count, cq.Sum, cq.CountDistinct, cq.SumDistinct, cq.Min, cq.Max}
	shuffled := shuffledInstance(r, in)
	consistent := in.Subset(func(f db.FactID) bool { return firstOfGroup(in, f) && (mode == KeysMode || !banned(in, f)) })
	engine := func(in *db.Instance, par int) *Engine {
		opts := Options{Mode: mode, Parallelism: par}
		if mode == DCMode {
			opts.DCs = metamorphicDCs(t, in)
		}
		e, err := New(in, opts)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	exOpts := func(in *db.Instance) exhaustive.Options {
		if mode == DCMode {
			return exhaustive.Options{Mode: exhaustive.ModeDCs, DCs: metamorphicDCs(t, in)}
		}
		return exhaustive.Options{Mode: exhaustive.ModeKeys}
	}
	seq, par, shuf, cons := engine(in, 1), engine(in, 4), engine(shuffled, 1), engine(consistent, 4)
	for _, op := range ops {
		for _, grouped := range []bool{false, true} {
			for qi, q := range []cq.AggQuery{singleRelQuery(op, grouped), joinQuery(op, grouped)} {
				where := fmt.Sprintf("%s op %v grouped %v query %d", label, op, grouped, qi)
				want, err := exhaustive.RangeAnswers(in, q, exOpts(in))
				if err != nil {
					t.Fatalf("%s: exhaustive: %v", where, err)
				}
				base := answers(t, where, seq, q)
				compareReports(t, where, &Report{Answers: base}, want)
				for _, v := range []struct {
					name string
					e    *Engine
					q    cq.AggQuery
				}{
					{"parallelism 4", par, q},
					{"shuffled facts", shuf, q},
					{"permuted atoms", seq, permutedAtoms(r, q)},
					{"shuffled facts, permuted atoms, parallelism 4", engine(shuffled, 4), permutedAtoms(r, q)},
				} {
					if got := answers(t, where, v.e, v.q); !sameAnswers(got, base) {
						t.Fatalf("%s: %s: %+v, base %+v", where, v.name, got, base)
					}
				}

				// On the consistent instance every range collapses to the
				// query's answer on it.
				direct, err := cq.EvalAgg(cq.NewEvaluator(consistent), q)
				if err != nil {
					t.Fatalf("%s: EvalAgg: %v", where, err)
				}
				got := answers(t, where, cons, q)
				if len(got) != len(direct) {
					t.Fatalf("%s: consistent instance: %d answers, EvalAgg %d: %+v vs %+v", where, len(got), len(direct), got, direct)
				}
				for i, a := range got {
					d := direct[i]
					if a.Key.Compare(d.Key) != 0 || !valuesMatch(a.GLB, d.Value) || !valuesMatch(a.LUB, d.Value) {
						t.Fatalf("%s: consistent instance: %v [%v, %v], EvalAgg %v %v", where, a.Key, a.GLB, a.LUB, d.Key, d.Value)
					}
				}
				if cw, err := exhaustive.RangeAnswers(consistent, q, exOpts(consistent)); err != nil {
					t.Fatalf("%s: exhaustive on the consistent instance: %v", where, err)
				} else {
					compareReports(t, where+" (consistent)", &Report{Answers: got}, cw)
				}
			}
		}
	}
}

// answers runs q on e.
func answers(t *testing.T, where string, e *Engine, q cq.AggQuery) []GroupAnswer {
	t.Helper()
	rep, err := e.RangeAnswers(q)
	if err != nil {
		t.Fatalf("%s: engine: %v", where, err)
	}
	return rep.Answers
}

// sameAnswers reports byte-identical answers: kind-exact keys and
// endpoints, and the same flags.
func sameAnswers(a, b []GroupAnswer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if !x.Key.EqualExact(y.Key) || !x.GLB.EqualExact(y.GLB) || !x.LUB.EqualExact(y.LUB) ||
			x.EmptyPossible != y.EmptyPossible || x.FromConsistentPart != y.FromConsistentPart {
			return false
		}
	}
	return true
}

// shuffledInstance returns in's facts inserted in a random order.
func shuffledInstance(r *rng, in *db.Instance) *db.Instance {
	order := make([]db.FactID, in.NumFacts())
	for i := range order {
		order[i] = db.FactID(i)
	}
	for i := len(order) - 1; i > 0; i-- {
		j := r.next(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	out := db.NewInstance(in.Schema())
	for _, f := range order {
		out.MustInsert(in.Schema().RelationByID(in.RelOf(f)).Name, tupleAt(in, f)...)
	}
	return out
}

// permutedAtoms returns q with each disjunct's atoms in a random order.
func permutedAtoms(r *rng, q cq.AggQuery) cq.AggQuery {
	u := cq.UCQ{Disjuncts: make([]cq.CQ, len(q.Underlying.Disjuncts))}
	for i, d := range q.Underlying.Disjuncts {
		atoms := append([]cq.Atom(nil), d.Atoms...)
		for j := len(atoms) - 1; j > 0; j-- {
			k := r.next(j + 1)
			atoms[j], atoms[k] = atoms[k], atoms[j]
		}
		d.Atoms = atoms
		u.Disjuncts[i] = d
	}
	q.Underlying = u
	return q
}

// metamorphicDCs is the DC-mode constraint set: the schema keys as DCs
// and a ban on R-facts with v = -4.
func metamorphicDCs(t *testing.T, in *db.Instance) []constraints.DC {
	dcs, err := constraints.SchemaKeyDCs(in.Schema())
	if err != nil {
		t.Fatal(err)
	}
	return append(dcs, constraints.DC{
		Name:  "ban-minus4",
		Atoms: []cq.Atom{{Rel: "R", Args: []cq.Term{cq.V("k"), cq.V("g"), cq.V("v")}}},
		Conds: []cq.Condition{{Left: cq.V("v"), Op: cq.OpEQ, Right: cq.C(db.Int(-4))}},
	})
}

// banned reports whether f violates the value ban of metamorphicDCs.
func banned(in *db.Instance, f db.FactID) bool {
	rs := in.Schema().RelationByID(in.RelOf(f))
	return rs.Name == "R" && in.ValueAt(f, 2).EqualExact(db.Int(-4))
}

// firstOfGroup reports whether f is the first fact of its relation with
// its key.
func firstOfGroup(in *db.Instance, f db.FactID) bool {
	rs := in.Schema().RelationByID(in.RelOf(f))
	key := tupleAt(in, f).Key(rs.Key)
	for _, g := range in.RelFactsByID(in.RelOf(f)) {
		if g == f {
			return true
		}
		if tupleAt(in, g).Key(rs.Key) == key {
			return false
		}
	}
	return true
}

func tupleAt(in *db.Instance, f db.FactID) db.Tuple {
	t := make(db.Tuple, in.Schema().RelationByID(in.RelOf(f)).Arity())
	for p := range t {
		t[p] = in.ValueAt(f, p)
	}
	return t
}
