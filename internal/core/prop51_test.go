package core

import (
	"fmt"
	"testing"

	"aggcavsat/internal/constraints"
	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
	"aggcavsat/internal/exhaustive"
	"aggcavsat/internal/sat"
)

// TestProposition51ModelRepairBijection validates Proposition V.1 (and
// its keys-mode analogue) directly: the satisfying assignments of the
// hard repair clauses, projected onto the fact variables, are in
// one-to-one correspondence with the repairs of the instance. Checked by
// enumerating both sides on random small instances.
func TestProposition51ModelRepairBijection(t *testing.T) {
	for seed := 1; seed <= 25; seed++ {
		r := rng(seed*31337 + 11)
		in := randomInstance(&r)

		// Keys mode.
		checkBijection(t, fmt.Sprintf("keys seed %d", seed), in, Options{Mode: KeysMode},
			func(visit func(keep []bool) bool) error {
				return exhaustive.RepairsKeys(in, visit)
			})

		// DC mode (keys expressed as FDs plus a value-ban DC).
		dcs, err := constraints.SchemaKeyDCs(in.Schema())
		if err != nil {
			t.Fatal(err)
		}
		dcs = append(dcs, constraints.DC{
			Name:  "ban",
			Atoms: []cq.Atom{{Rel: "R", Args: []cq.Term{cq.V("k"), cq.V("g"), cq.V("v")}}},
			Conds: []cq.Condition{{Left: cq.V("v"), Op: cq.OpEQ, Right: cq.C(db.Int(-4))}},
		})
		eng, err := New(in, Options{Mode: DCMode, DCs: dcs})
		if err != nil {
			t.Fatal(err)
		}
		violations := constraints.MinimalViolations(cq.NewEvaluator(in), dcs)
		checkBijectionEngine(t, fmt.Sprintf("dc seed %d", seed), eng,
			func(visit func(keep []bool) bool) error {
				return exhaustive.RepairsDCs(in, violations, visit)
			})
	}
}

func checkBijection(t *testing.T, label string, in *db.Instance, opts Options,
	repairs func(func(keep []bool) bool) error) {
	t.Helper()
	eng, err := New(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkBijectionEngine(t, label, eng, repairs)
}

func checkBijectionEngine(t *testing.T, label string, eng *Engine,
	repairs func(func(keep []bool) bool) error) {
	t.Helper()
	in := eng.Instance()
	ctx, _ := eng.context()

	// Encode every fact.
	var seed []db.FactID
	for f := 0; f < in.NumFacts(); f++ {
		seed = append(seed, db.FactID(f))
	}
	facts := ctx.closure(seed)
	enc := newEncoder(ctx, facts)

	solver := sat.New()
	if !solver.AddFormulaHard(enc.formula) {
		t.Fatalf("%s: hard clauses unsatisfiable", label)
	}
	solver.EnsureVars(enc.formula.NumVars())

	// Collect models projected on the fact variables (facts are interned
	// as variables 1..len(facts) in encoder order).
	models := map[string]bool{}
	solver.EnumerateModels(len(facts), 1<<20, func(model []bool) bool {
		key := make([]byte, len(facts))
		for i := range facts {
			if model[i+1] {
				key[i] = '1'
			} else {
				key[i] = '0'
			}
		}
		models[string(key)] = true
		return true
	})

	// Collect repairs projected on the same fact order.
	repairSet := map[string]bool{}
	err := repairs(func(keep []bool) bool {
		key := make([]byte, len(facts))
		for i, f := range facts {
			if keep[f] {
				key[i] = '1'
			} else {
				key[i] = '0'
			}
		}
		repairSet[string(key)] = true
		return true
	})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}

	if len(models) != len(repairSet) {
		t.Fatalf("%s: %d satisfying assignments vs %d repairs", label, len(models), len(repairSet))
	}
	for k := range repairSet {
		if !models[k] {
			t.Fatalf("%s: repair %s has no corresponding model", label, k)
		}
	}
}

// TestPossibleAnswers validates the possible-answer computation against
// exhaustive repair enumeration.
func TestPossibleAnswers(t *testing.T) {
	for seed := 1; seed <= 30; seed++ {
		r := rng(seed*911 + 5)
		in := randomInstance(&r)
		u := cq.Single(cq.CQ{
			Head: []string{"g"},
			Atoms: []cq.Atom{
				{Rel: "R", Args: []cq.Term{cq.V("k"), cq.V("g"), cq.V("v")}},
				{Rel: "S", Args: []cq.Term{cq.V("k"), cq.V("w")}},
			},
		})
		eng, err := New(in, Options{Mode: KeysMode})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := eng.PossibleAnswers(u)
		if err != nil {
			t.Fatal(err)
		}

		// Exhaustive: union of answers across repairs.
		want := map[string]bool{}
		e := cq.NewEvaluator(in)
		rows := e.EvalUCQ(u)
		err = exhaustive.RepairsKeys(in, func(keep []bool) bool {
			for _, row := range rows {
				alive := true
				for _, f := range row.Facts {
					if !keep[f] {
						alive = false
						break
					}
				}
				if alive {
					want[row.Head.Key([]int{0})] = true
				}
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d possible answers, exhaustive %d", seed, len(got), len(want))
		}
		for _, g := range got {
			if !want[g.Key([]int{0})] {
				t.Fatalf("seed %d: spurious possible answer %v", seed, g)
			}
		}
	}
}

// TestPossibleContainsConsistent checks CONS(q) ⊆ POSS(q) on random
// instances (a basic sanity property of the two semantics).
func TestPossibleContainsConsistent(t *testing.T) {
	for seed := 1; seed <= 15; seed++ {
		r := rng(seed*77 + 1)
		in := randomInstance(&r)
		u := cq.Single(cq.CQ{
			Head:  []string{"g"},
			Atoms: []cq.Atom{{Rel: "R", Args: []cq.Term{cq.V("k"), cq.V("g"), cq.V("v")}}},
		})
		eng, _ := New(in, Options{Mode: KeysMode})
		cons, _, err := eng.ConsistentAnswers(u)
		if err != nil {
			t.Fatal(err)
		}
		poss, _, err := eng.PossibleAnswers(u)
		if err != nil {
			t.Fatal(err)
		}
		possSet := map[string]bool{}
		for _, p := range poss {
			possSet[p.Key([]int{0})] = true
		}
		for _, c := range cons {
			if !possSet[c.Key([]int{0})] {
				t.Fatalf("seed %d: consistent answer %v not possible", seed, c)
			}
		}
	}
}

// TestEnumerateModelsSmall checks the enumerator against a known count.
func TestEnumerateModelsSmall(t *testing.T) {
	s := sat.New()
	s.AddClause(1, 2) // x1 ∨ x2 over 2 vars: 3 models
	count := s.EnumerateModels(2, 0, nil)
	if count != 3 {
		t.Fatalf("models = %d, want 3", count)
	}
	// Limit respected.
	s2 := sat.New()
	s2.AddClause(1, 2, 3)
	if got := s2.EnumerateModels(3, 2, nil); got != 2 {
		t.Fatalf("limited models = %d, want 2", got)
	}
}
