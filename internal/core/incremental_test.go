package core

import (
	"fmt"
	"testing"

	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
	"aggcavsat/internal/exhaustive"
	"aggcavsat/internal/maxsat"
)

// TestIncrementalMatchesExhaustive pins the shared-base solve path —
// hard clauses loaded once per component, both optimization directions
// and the MaxHS→RC2 fallback served from clones — to brute-force repair
// enumeration (internal/exhaustive) on random inconsistent instances,
// for every operator, scalar and grouped, MaxHS with default budgets and
// with the RC2 fallback forced (a hitting-set node budget of 1), and
// both a sequential and a parallel worker pool.
func TestIncrementalMatchesExhaustive(t *testing.T) {
	ops := []cq.AggOp{cq.CountStar, cq.Count, cq.Sum, cq.CountDistinct, cq.SumDistinct, cq.Min, cq.Max}
	legs := []struct {
		name string
		opts maxsat.Options
	}{
		{"maxhs", maxsat.Options{}},
		{"maxhs→rc2", maxsat.Options{HSNodeBudget: 1}},
	}
	trials := 25
	if testing.Short() {
		trials = 6
	}
	for seed := 1; seed <= trials; seed++ {
		r := rng(seed*15485863 + 9)
		in := randomInstance(&r)
		want := map[string][]exhaustive.GroupRange{}
		for _, op := range ops {
			for _, grouped := range []bool{false, true} {
				w, err := exhaustive.RangeAnswers(in, joinQuery(op, grouped), exhaustive.Options{Mode: exhaustive.ModeKeys})
				if err != nil {
					t.Fatalf("seed %d op %v grouped %v: exhaustive: %v", seed, op, grouped, err)
				}
				want[fmt.Sprint(op, grouped)] = w
			}
		}
		for _, leg := range legs {
			for _, par := range []int{1, 4} {
				eng, err := New(in, Options{Mode: KeysMode, Parallelism: par, MaxSAT: leg.opts})
				if err != nil {
					t.Fatal(err)
				}
				if !eng.incremental() {
					t.Fatalf("%s: engine not on the shared-base path", leg.name)
				}
				for _, op := range ops {
					for _, grouped := range []bool{false, true} {
						label := fmt.Sprintf("seed %d %s par %d op %v grouped %v", seed, leg.name, par, op, grouped)
						got, err := eng.RangeAnswers(joinQuery(op, grouped))
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						compareReports(t, label, got, want[fmt.Sprint(op, grouped)])
					}
				}
			}
		}
	}
}

// TestIncrementalConsistentAnswersMatch covers the Algorithm-2 path: the
// candidate consistency checks fork from a cached hard base and must
// accept exactly the answers repair enumeration does, sequentially and
// in parallel.
func TestIncrementalConsistentAnswersMatch(t *testing.T) {
	u := consQuery()
	for seed := 1; seed <= 20; seed++ {
		r := rng(seed*32452843 + 13)
		in := randomInstance(&r)
		want := exhaustiveCons(t, in, u)
		for _, par := range []int{1, 4} {
			eng, _ := New(in, Options{Mode: KeysMode, Parallelism: par})
			got, _, err := eng.ConsistentAnswers(u)
			if err != nil {
				t.Fatal(err)
			}
			requireConsMatches(t, fmt.Sprintf("seed %d par %d", seed, par), got, want)
		}
	}
}

// TestComponentBaseCached pins the memoization: two calls for the same
// component return the same HardBase, and the returned encoder's formula
// is a private snapshot (appending to it does not grow the cache).
func TestComponentBaseCached(t *testing.T) {
	r := rng(42)
	in := randomInstance(&r)
	e, _ := New(in, Options{Mode: KeysMode})
	cc := e.context()
	var facts []db.FactID
	for f := 0; f < in.NumFacts(); f++ {
		facts = append(facts, db.FactID(f))
	}
	comp := cc.closure(map[db.FactID]bool{facts[0]: true})
	enc1, base1, hit1 := e.componentBase(cc, comp)
	enc2, base2, hit2 := e.componentBase(cc, comp)
	if base1 != base2 {
		t.Fatal("componentBase rebuilt the HardBase for an identical component")
	}
	if hit1 || !hit2 {
		t.Fatalf("componentBase hit flags = %v, %v; want miss then hit", hit1, hit2)
	}
	n := enc2.formula.NumClauses()
	enc1.formula.AddSoft(1, enc1.lit(comp[0]))
	enc1.formula.AddHard(enc1.lit(comp[0]), enc1.lit(comp[0]).Neg())
	if got := enc2.formula.NumClauses(); got != n {
		t.Fatalf("snapshot leaked: sibling encoder grew from %d to %d clauses", n, got)
	}
	if _, base3, _ := e.componentBase(cc, comp); base3.NumClauses() != n {
		t.Fatalf("cache contaminated: base covers %d clauses, want %d", base3.NumClauses(), n)
	}
}

// benchInstance builds an inconsistent instance shaped like the paper's
// benchmark databases: nKeys key-equal groups of 2–3 alternatives each,
// values spread over a handful of grouping attributes so a grouped query
// revisits the same components across groups.
func benchInstance(nKeys int) *db.Instance {
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
	in := db.NewInstance(s)
	groups := []string{"a", "b", "c", "d"}
	for k := 0; k < nKeys; k++ {
		alts := 2 + k%2
		for a := 0; a < alts; a++ {
			in.MustInsert("R",
				db.Int(int64(k)),
				db.Str(groups[(k+a)%len(groups)]),
				db.Int(int64(1+(k*7+a*13)%23)))
		}
	}
	return in
}

// BenchmarkGroupedSumIncremental measures the end-to-end grouped SUM
// pipeline — Algorithm 2 grouping plus one WPMaxSAT component per
// key-equal group per direction — on the shared-base path.
func BenchmarkGroupedSumIncremental(b *testing.B) {
	in := benchInstance(150)
	q := singleRelQuery(cq.Sum, true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := New(in, Options{Mode: KeysMode, Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.RangeAnswers(q); err != nil {
			b.Fatal(err)
		}
	}
}
