package cq

import (
	"context"
	"fmt"
	"slices"
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
// (the two differ only where a FLOAT column stores INT values). It
// returns the witness bag, each (fact set, answer) with the number of
// assignments producing it, in first-assignment order; the evaluator
// must produce exactly the same bag.
func naiveEval(in *db.Instance, q CQ) []Witness {
	order := planCQ(in, q).order
	var bag []Witness
	at := map[string]int{}
	choice := make([]db.FactID, len(q.Atoms))
	tuples := map[db.FactID]db.Tuple{}
	bindings := map[string]db.Value{}
	own := map[string]bool{} // variables first bound by the current atom
	match := func() bool {
		clear(bindings)
		for _, ai := range order {
			atom := q.Atoms[ai]
			tuple := tuples[choice[ai]]
			clear(own)
			for pos, term := range atom.Args {
				if term.IsConst {
					if !term.Const.EqualExact(tuple[pos]) {
						return false
					}
					continue
				}
				if v, ok := bindings[term.Var]; ok {
					match := v.EqualExact(tuple[pos])
					if own[term.Var] {
						match = v.Equal(tuple[pos])
					}
					if !match {
						return false
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
				return false
			}
		}
		return true
	}
	var rec func(i int)
	rec = func(i int) {
		if i == len(q.Atoms) {
			if !match() {
				return
			}
			head := make(db.Tuple, len(q.Head))
			for i, h := range q.Head {
				head[i] = bindings[h]
			}
			facts := append([]db.FactID(nil), choice...)
			sort.Slice(facts, func(a, b int) bool { return facts[a] < facts[b] })
			facts = slices.Compact(facts)
			k := witnessKey(Witness{Facts: facts, Answer: head})
			if j, ok := at[k]; ok {
				bag[j].Mult++
				return
			}
			at[k] = len(bag)
			bag = append(bag, Witness{Facts: facts, Answer: head, Mult: 1})
			return
		}
		for _, f := range in.RelFacts(q.Atoms[i].Rel) {
			if tuples[f] == nil {
				tuples[f] = tupleOf(in, f)
			}
			choice[i] = f
			rec(i + 1)
		}
	}
	rec(0)
	return bag
}

// witnessKey renders a witness's fact set and answer (kind-exact) for
// multiset comparison.
func witnessKey(w Witness) string {
	return fmt.Sprintf("%s|%v", w.Answer.Key(headPositions(len(w.Answer))), w.Facts)
}

// bagDiff compares two witness bags as multisets of (fact set, answer,
// multiplicity) and returns the first key whose count differs, or ""
// when the bags are equal.
func bagDiff(got, want []Witness) string {
	key := func(ws []Witness) []string {
		out := make([]string, len(ws))
		for i, w := range ws {
			out[i] = fmt.Sprintf("%s|%d", witnessKey(w), w.Mult)
		}
		return out
	}
	return multisetDiff(key(got), key(want))
}

// evalBag is the evaluator's witness bag of one CQ.
func evalBag(e *Evaluator, q CQ) []Witness { return e.WitnessBag(Single(q)) }

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

		got := evalBag(NewEvaluator(in), q)
		want := naiveEval(in, q)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d witnesses vs naive %d\nquery: %s", seed, len(got), len(want), q)
		}
		if d := bagDiff(got, want); d != "" {
			t.Fatalf("seed %d: witness bag mismatch at %s\nquery: %s", seed, d, q)
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
		got := evalBag(compiled, q)
		if len(got) != len(want) {
			t.Errorf("query %d (%s): %d witnesses, naive %d", i, q, len(got), len(want))
			continue
		}
		if d := bagDiff(got, want); d != "" {
			t.Errorf("query %d (%s): compiled witnesses differ at %s\n got: %v\nwant: %v", i, q, d, got, want)
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
			got := evalBag(compiled, q)
			if len(got) != len(want) {
				t.Fatalf("trial %d query %d (%s): %d witnesses, naive %d", trial, qi, q, len(got), len(want))
			}
			if d := bagDiff(got, want); d != "" {
				t.Fatalf("trial %d query %d (%s): compiled witnesses differ at %s\n got: %v\nwant: %v",
					trial, qi, q, d, got, want)
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
	got := evalBag(NewEvaluator(in), q)
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
// fuzzed seed. Every query's witness bag — fact sets, answers and
// multiplicities — must equal naiveEval's, and WitnessGroups under a
// random safe-fact set and group arity must split naiveEval's bag: the
// witnesses touching an unsafe fact stay in their group's bag, and the
// all-safe rest is aggregated into the fold of its exactly equal group
// key. One input in four also runs a self-join of R with itself over
// at least parallelEvalThreshold facts at parallelism 4, where the two
// orders of a pair of facts are two assignments of one fact set that
// different chunks emit.
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
			got, want := evalBag(e, q), naiveEval(in, q)
			if d := bagDiff(got, want); d != "" || len(got) != len(want) {
				t.Fatalf("query %d (%s): %d witnesses, naive %d; first difference %s", qi, q, len(got), len(want), d)
			}
			mod := db.FactID(2 + rng.Intn(4))
			safe := func(f db.FactID) bool { return f%mod != 0 }
			checkFolded(t, e, q, want, safe, rng.Intn(len(q.Head)+1))
		}
		if rng.Intn(4) != 0 {
			return
		}
		big := randomEvalInstance(rng, parallelEvalThreshold+rng.Intn(32))
		par := NewEvaluator(big)
		par.SetParallelism(4)
		heads := [][]string{{"g"}, {}, {"g", "v"}, {"x", "g"}}
		q := CQ{Head: heads[rng.Intn(len(heads))], Atoms: []Atom{
			{Rel: "R", Args: []Term{V("x"), V("g"), V("v")}},
			{Rel: "R", Args: []Term{V("y"), V("g"), V("u")}},
		}}
		want := naiveEval(big, q)
		if got := evalBag(par, q); bagDiff(got, want) != "" || len(got) != len(want) {
			t.Fatalf("self-join %s at parallelism 4: %d witnesses, naive %d; first difference %s", q, len(got), len(want), bagDiff(got, want))
		}
		mod := db.FactID(2 + rng.Intn(4))
		checkFolded(t, par, q, want, func(f db.FactID) bool { return f%mod != 0 }, rng.Intn(len(q.Head)+1))
	})
}

// checkFolded checks WitnessGroups(q, arity, safe) against want, the
// naive witness bag of q: each group holds exactly the witnesses of its
// key that touch an unsafe fact, with their answers cut to the suffix,
// and the fold of the all-safe ones.
func checkFolded(t *testing.T, e *Evaluator, q CQ, want []Witness, safe func(db.FactID) bool, arity int) {
	t.Helper()
	groups, err := e.WitnessGroups(context.Background(), Single(q), arity, safe)
	if err != nil {
		t.Fatal(err)
	}
	type group struct {
		bag  []Witness
		fold Fold
	}
	wantGroups := map[string]*group{}
	for _, w := range want {
		k := w.Answer[:arity].Key(headPositions(arity))
		g := wantGroups[k]
		if g == nil {
			g = &group{}
			wantGroups[k] = g
		}
		allSafe := true
		for _, f := range w.Facts {
			allSafe = allSafe && safe(f)
		}
		if !allSafe {
			g.bag = append(g.bag, Witness{Facts: w.Facts, Answer: w.Answer[arity:], Mult: w.Mult})
			continue
		}
		g.fold.Rows += w.Mult
		if len(w.Answer) > arity {
			if v := w.Answer[arity]; !v.IsNull() {
				g.fold.NonNull += w.Mult
				if v.Kind() == db.KindInt {
					g.fold.Sum += w.Mult * v.AsInt()
				} else {
					g.fold.NonInt = v // presence only: enumeration order differs
				}
			}
		}
	}
	if len(groups) != len(wantGroups) {
		t.Fatalf("%s arity %d: %d groups, want %d", q, arity, len(groups), len(wantGroups))
	}
	for i, g := range groups {
		if i > 0 && compareExact(groups[i-1].Key, g.Key) >= 0 {
			t.Fatalf("%s arity %d: groups %v, %v out of order", q, arity, groups[i-1].Key, g.Key)
		}
		w := wantGroups[g.Key.Key(headPositions(arity))]
		if w == nil {
			t.Fatalf("%s arity %d: unexpected group %v", q, arity, g.Key)
		}
		if d := bagDiff(g.Witnesses, w.bag); d != "" || len(g.Witnesses) != len(w.bag) {
			t.Fatalf("%s arity %d group %v: %d witnesses, want %d; first difference %s", q, arity, g.Key, len(g.Witnesses), len(w.bag), d)
		}
		for j := 1; j < len(g.Witnesses); j++ {
			a, b := g.Witnesses[j-1], g.Witnesses[j]
			if c := compareFactSets(a.Facts, b.Facts); c > 0 || c == 0 && compareExact(a.Answer, b.Answer) >= 0 {
				t.Fatalf("%s arity %d group %v: witnesses %v, %v out of order", q, arity, g.Key, a, b)
			}
		}
		f := g.Fold
		if f.Rows != w.fold.Rows || f.NonNull != w.fold.NonNull || f.Sum != w.fold.Sum || f.NonInt.IsNull() != w.fold.NonInt.IsNull() {
			t.Fatalf("%s arity %d: group %v fold %+v, want %+v", q, arity, g.Key, f, w.fold)
		}
	}
}
