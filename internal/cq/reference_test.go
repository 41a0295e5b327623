package cq

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"aggcavsat/internal/db"
	"aggcavsat/internal/xrand"
)

// naiveEval is a brute-force reference evaluator: it enumerates every
// combination of one fact per atom and checks bindings and conditions
// directly, with none of the evaluator's index or compiled-program
// machinery. It applies the matching semantics documented in
// compile.go: walking the atoms in planCQ's order, a constant or a
// variable bound by an earlier atom matches kind-exactly (EqualExact),
// while a variable repeated within one atom matches with Value.Equal
// (the two differ only where a FLOAT column stores INT values). The
// evaluator must produce exactly the same bag of rows.
func naiveEval(in *db.Instance, q CQ) []Row {
	order := planCQ(in, q).order
	var rows []Row
	choice := make([]db.FactID, len(q.Atoms))
	var rec func(i int)
	rec = func(i int) {
		if i == len(q.Atoms) {
			bindings := map[string]db.Value{}
			for _, ai := range order {
				atom := q.Atoms[ai]
				tuple := tupleOf(in, choice[ai])
				own := map[string]bool{} // variables first bound by this atom
				for pos, term := range atom.Args {
					if term.IsConst {
						if !term.Const.EqualExact(tuple[pos]) {
							return
						}
						continue
					}
					if v, ok := bindings[term.Var]; ok {
						match := v.EqualExact(tuple[pos])
						if own[term.Var] {
							match = v.Equal(tuple[pos])
						}
						if !match {
							return
						}
						continue
					}
					bindings[term.Var] = tuple[pos]
					own[term.Var] = true
				}
			}
			for _, c := range q.Conds {
				val := func(t Term) db.Value {
					if t.IsConst {
						return t.Const
					}
					return bindings[t.Var]
				}
				if !c.Op.Apply(val(c.Left), val(c.Right)) {
					return
				}
			}
			head := make(db.Tuple, len(q.Head))
			for i, h := range q.Head {
				head[i] = bindings[h]
			}
			facts := append([]db.FactID(nil), choice...)
			sort.Slice(facts, func(a, b int) bool { return facts[a] < facts[b] })
			dedup := facts[:0]
			for i, f := range facts {
				if i == 0 || f != facts[i-1] {
					dedup = append(dedup, f)
				}
			}
			rows = append(rows, Row{Head: head, Facts: dedup})
			return
		}
		for _, f := range in.RelFacts(q.Atoms[i].Rel) {
			choice[i] = f
			rec(i + 1)
		}
	}
	rec(0)
	return rows
}

// rowKey canonicalizes a row for multiset comparison.
func rowKey(r Row) string {
	positions := make([]int, len(r.Head))
	for i := range positions {
		positions[i] = i
	}
	return fmt.Sprintf("%s|%v", r.Head.Key(positions), r.Facts)
}

// bagDiff compares two row lists as multisets (order-insensitive,
// kind-exact on head values) and returns the first row key whose
// multiplicity differs, or "" when the bags are equal.
func bagDiff(got, want []Row) string {
	key := func(rows []Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = rowKey(r)
		}
		return out
	}
	return multisetDiff(key(got), key(want))
}

// witnessBagDiff compares two witness bags as multisets of (fact set,
// answer, multiplicity); "" means equal.
func witnessBagDiff(got, want []Witness) string {
	key := func(ws []Witness) []string {
		out := make([]string, len(ws))
		for i, w := range ws {
			out[i] = fmt.Sprintf("%s|%d", rowKey(Row{Head: w.Answer, Facts: w.Facts}), w.Mult)
		}
		return out
	}
	return multisetDiff(key(got), key(want))
}

// multisetDiff returns the first key whose count differs between got
// and want, with the signed surplus, or "" when they are equal.
func multisetDiff(got, want []string) string {
	count := map[string]int{}
	for _, k := range got {
		count[k]++
	}
	for _, k := range want {
		count[k]--
	}
	for k, v := range count {
		if v != 0 {
			return fmt.Sprintf("%s (%+d)", k, v)
		}
	}
	return ""
}

// TestEvalAgainstNaive cross-checks the hash-join evaluator against the
// brute-force reference on random instances and random queries,
// including self-joins, constants, repeated variables and comparisons.
func TestEvalAgainstNaive(t *testing.T) {
	schema := db.NewSchema()
	schema.MustAddRelation(&db.RelationSchema{
		Name: "R",
		Attrs: []db.Attribute{
			{Name: "a", Kind: db.KindInt},
			{Name: "b", Kind: db.KindInt},
			{Name: "c", Kind: db.KindString},
		},
		Key: []int{0},
	})
	schema.MustAddRelation(&db.RelationSchema{
		Name: "S",
		Attrs: []db.Attribute{
			{Name: "x", Kind: db.KindInt},
			{Name: "y", Kind: db.KindString},
		},
		Key: []int{0},
	})

	trials := 120
	if testing.Short() {
		trials = 30
	}
	for seed := 1; seed <= trials; seed++ {
		s := uint64(seed)*2654435761 + 7
		next := func(n int) int {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			return int(s % uint64(n))
		}
		in := db.NewInstance(schema)
		for i, n := 0, 3+next(6); i < n; i++ {
			in.MustInsert("R",
				db.Int(int64(next(4))),
				db.Int(int64(next(4))),
				db.Str(string(rune('a'+next(3)))))
		}
		for i, n := 0, 2+next(5); i < n; i++ {
			in.MustInsert("S",
				db.Int(int64(next(4))),
				db.Str(string(rune('a'+next(3)))))
		}

		// Random query: 1–3 atoms over R/S with a shared variable pool,
		// random constants, and an optional comparison.
		varPool := []string{"u", "v", "w", "z"}
		nAtoms := 1 + next(3)
		var atoms []Atom
		var boundVars []string
		for ai := 0; ai < nAtoms; ai++ {
			if next(2) == 0 {
				args := make([]Term, 3)
				for p := 0; p < 3; p++ {
					if p == 2 {
						if next(3) == 0 {
							args[p] = C(db.Str(string(rune('a' + next(3)))))
							continue
						}
					} else if next(4) == 0 {
						args[p] = C(db.Int(int64(next(4))))
						continue
					}
					v := varPool[next(len(varPool))]
					if p == 2 {
						v = "s" + v // string-typed variables kept separate
					}
					args[p] = V(v)
					boundVars = append(boundVars, v)
				}
				atoms = append(atoms, Atom{Rel: "R", Args: args})
			} else {
				v1 := varPool[next(len(varPool))]
				v2 := "s" + varPool[next(len(varPool))]
				atoms = append(atoms, Atom{Rel: "S", Args: []Term{V(v1), V(v2)}})
				boundVars = append(boundVars, v1, v2)
			}
		}
		q := CQ{Atoms: atoms}
		if len(boundVars) > 0 {
			q.Head = []string{boundVars[next(len(boundVars))]}
			if next(3) == 0 {
				a := boundVars[next(len(boundVars))]
				b := boundVars[next(len(boundVars))]
				// Only compare same-typed variables.
				if (a[0] == 's') == (b[0] == 's') {
					ops := []CmpOp{OpEQ, OpNE, OpLT, OpLE}
					q.Conds = []Condition{{Left: V(a), Op: ops[next(len(ops))], Right: V(b)}}
				}
			}
		}
		if err := q.Validate(schema); err != nil {
			continue // a constant landed on a mistyped position; skip
		}

		got := NewEvaluator(in).Eval(q)
		want := naiveEval(in, q)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d rows vs naive %d\nquery: %s", seed, len(got), len(want), q)
		}
		if d := bagDiff(got, want); d != "" {
			t.Fatalf("seed %d: row multiset mismatch at %s\nquery: %s", seed, d, q)
		}
	}
}

// TestCompiledMatchesInterpreterFixtures checks the compiled evaluator
// against the naiveEval reference interpreter on the paper fixtures.
func TestCompiledMatchesInterpreterFixtures(t *testing.T) {
	in := bank()
	compiled := NewEvaluator(in)
	queries := []CQ{
		maryBalances(),
		sameCity(),
		{Head: []string{"cid", "name"}, Atoms: []Atom{{Rel: "Cust", Args: []Term{V("cid"), V("name"), V("city")}}}},
		{
			Head: []string{"n1", "n2"},
			Atoms: []Atom{
				{Rel: "Cust", Args: []Term{V("c1"), V("n1"), V("city")}},
				{Rel: "Cust", Args: []Term{V("c2"), V("n2"), V("city")}},
			},
			Conds: []Condition{{Left: V("c1"), Op: OpLT, Right: V("c2")}},
		},
	}
	for i, q := range queries {
		want := naiveEval(in, q)
		got := compiled.Eval(q)
		if len(got) != len(want) {
			t.Errorf("query %d (%s): %d rows, naive %d", i, q, len(got), len(want))
			continue
		}
		if d := bagDiff(got, want); d != "" {
			t.Errorf("query %d (%s): compiled rows differ at %s\n got: %v\nwant: %v", i, q, d, got, want)
		}
	}
}

// TestCompiledMatchesInterpreterRandom is the bag-equality property
// test against the naiveEval reference interpreter across randomized
// instances (INT values in FLOAT columns, repeated join keys) and query
// shapes (constants, within- and cross-atom repeated variables,
// comparisons).
func TestCompiledMatchesInterpreterRandom(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := xrand.New(uint64(trial)*2654435761 + 1)
		in := randomEvalInstance(rng, 20+rng.Intn(30))
		compiled := NewEvaluator(in)
		for qi := 0; qi < 8; qi++ {
			q := randomCQ(rng)
			want := naiveEval(in, q)
			got := compiled.Eval(q)
			if len(got) != len(want) {
				t.Fatalf("trial %d query %d (%s): %d rows, naive %d", trial, qi, q, len(got), len(want))
			}
			if d := bagDiff(got, want); d != "" {
				t.Fatalf("trial %d query %d (%s): compiled rows differ at %s\n got: %v\nwant: %v",
					trial, qi, q, d, got, want)
			}
			// Witness bags built from either row stream must agree too.
			if d := witnessBagDiff(CollectWitnesses(got), CollectWitnesses(want)); d != "" {
				t.Fatalf("trial %d query %d: witness bags differ at %s", trial, qi, d)
			}
		}
	}
}

// TestTriviallyTrueQuery pins the zero-atom base case to the
// reference: exactly one empty witnessing assignment.
func TestTriviallyTrueQuery(t *testing.T) {
	in := bank()
	q := CQ{}
	want := naiveEval(in, q)
	got := NewEvaluator(in).Eval(q)
	if len(want) != 1 || len(got) != 1 || bagDiff(got, want) != "" {
		t.Fatalf("zero-atom query: got %v, want %v", got, want)
	}
}

// tupleOf materializes one fact's tuple through ValueAt.
func tupleOf(in *db.Instance, id db.FactID) db.Tuple {
	t := make(db.Tuple, in.Schema().RelationByID(in.RelOf(id)).Arity())
	for p := range t {
		t[p] = in.ValueAt(id, p)
	}
	return t
}

// FuzzEvalAgainstNaive drives randomEvalInstance and randomCQ from a
// fuzzed seed. Every query's compiled rows must equal naiveEval's bag,
// and FoldedBagCtx under a random safe-fact set and group arity must
// partition the unfolded witness bag: the witnesses touching an unsafe
// fact stay materialized, and the all-safe rest is
// aggregated per exactly equal group key.
func FuzzEvalAgainstNaive(f *testing.F) {
	for seed := uint64(1); seed <= 40; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		rng := xrand.New(seed)
		in := randomEvalInstance(rng, 8+rng.Intn(30))
		e := NewEvaluator(in)
		for qi := 0; qi < 6; qi++ {
			q := randomCQ(rng)
			got, want := e.Eval(q), naiveEval(in, q)
			if d := bagDiff(got, want); d != "" || len(got) != len(want) {
				t.Fatalf("query %d (%s): %d rows, naive %d; first difference %s", qi, q, len(got), len(want), d)
			}
			mod := db.FactID(2 + rng.Intn(4))
			safe := func(f db.FactID) bool { return f%mod != 0 }
			checkFolded(t, e, Single(q), safe, rng.Intn(len(q.Head)+1))
		}
	})
}

// checkFolded checks FoldedBagCtx(u, safe, arity) against the unfolded
// witness bag of u.
func checkFolded(t *testing.T, e *Evaluator, u UCQ, safe func(db.FactID) bool, arity int) {
	t.Helper()
	full := e.WitnessBag(u)
	bag, folds, err := e.FoldedBagCtx(context.Background(), u, safe, arity)
	if err != nil {
		t.Fatal(err)
	}
	var wantBag []Witness
	want := map[string]*Fold{}
	var order []string
	for _, w := range full {
		allSafe := true
		for _, f := range w.Facts {
			allSafe = allSafe && safe(f)
		}
		if !allSafe {
			wantBag = append(wantBag, w)
			continue
		}
		k := w.Answer[:arity].Key(headPositions(arity))
		fd := want[k]
		if fd == nil {
			fd = &Fold{}
			want[k] = fd
			order = append(order, k)
		}
		fd.Rows += w.Mult
		if len(w.Answer) > arity {
			if v := w.Answer[arity]; !v.IsNull() {
				fd.NonNull += w.Mult
				if v.Kind() == db.KindInt {
					fd.Sum += w.Mult * v.AsInt()
				} else {
					fd.NonInt = v // presence only: enumeration order differs
				}
			}
		}
	}
	// Compared as bags: witnesses with one fact set whose answers are
	// Compare-equal but not exactly equal (Int(1), Float(1)) have no
	// fixed relative order.
	if d := witnessBagDiff(bag, wantBag); d != "" || len(bag) != len(wantBag) {
		t.Fatalf("%s arity %d: %d materialized witnesses, want %d; first difference %s", u, arity, len(bag), len(wantBag), d)
	}
	if len(folds) != len(order) {
		t.Fatalf("%s arity %d: %d folds, want %d", u, arity, len(folds), len(order))
	}
	for _, gf := range folds {
		w := want[gf.Key.Key(headPositions(arity))]
		if w == nil || gf.Rows != w.Rows || gf.NonNull != w.NonNull || gf.Sum != w.Sum || gf.NonInt.IsNull() != w.NonInt.IsNull() {
			t.Fatalf("%s arity %d: fold %v = %+v, want %+v", u, arity, gf.Key, gf.Fold, w)
		}
	}
}
