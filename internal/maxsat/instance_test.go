package maxsat

import (
	"context"
	"testing"
	"testing/quick"

	"aggcavsat/internal/cnf"
)

// randomWCNF builds a small random weighted formula with nHard hard
// clauses FIRST (so a HardBase prefix can be snapshotted) and soft
// clauses after, mirroring TestRandomAgainstBruteForce's generator.
func randomWCNF(seed uint64) *cnf.Formula {
	rng := seed | 1
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	nVars := 3 + next(5)
	f := cnf.New(nVars)
	randClause := func() []cnf.Lit {
		k := 1 + next(3)
		lits := make([]cnf.Lit, k)
		for j := range lits {
			v := 1 + next(nVars)
			if next(2) == 0 {
				lits[j] = cnf.Lit(v)
			} else {
				lits[j] = cnf.Lit(-v)
			}
		}
		return lits
	}
	nHard := next(6)
	for i := 0; i < nHard; i++ {
		f.AddHard(randClause()...)
	}
	nSoft := 1 + next(8)
	for i := 0; i < nSoft; i++ {
		f.AddSoft(int64(1+next(7)), randClause()...)
	}
	return f
}

// solveFunc is the signature shared by the built-ins and solveProblem.
type solveFunc = func(context.Context, *problem, Options) (Result, error)

// checkInstanceAgainstLegacy runs both Instance directions through
// solve, with and without a HardBase prefix, and compares them to the
// legacy two-formula path (ref on f, ref on f.NegateSoft()).
func checkInstanceAgainstLegacy(t *testing.T, seed uint64, ref, solve solveFunc, opts Options) bool {
	t.Helper()
	// Rebuild the formula twice so the hard prefix can be snapshotted
	// before the soft clauses exist.
	f := randomWCNF(seed)
	prefix := cnf.New(f.NumVars())
	var base *HardBase
	{
		allHard := true
		for _, c := range f.Clauses() {
			if !c.Hard() {
				allHard = false
				continue // hards precede softs in the generator
			}
			if allHard {
				prefix.AddHard(c.Lits...)
			}
		}
		base = NewHardBase(prefix)
	}
	ctx := context.Background()
	legacyMin, errMin := ref(ctx, formulaProblem(f), opts)
	legacyMax, errMax := ref(ctx, formulaProblem(f.NegateSoft()), opts)
	if errMin != nil || errMax != nil {
		t.Fatalf("legacy solve failed: %v / %v", errMin, errMax)
	}
	for _, b := range []*HardBase{nil, base} {
		// NewInstance(f, base, ...) requires base to snapshot a prefix
		// of f's clause list; prefix holds exactly f's hard clauses
		// only when they all precede the softs, which the generator
		// guarantees.
		var inst *Instance
		if b == nil {
			inst = NewInstance(f, nil, opts)
		} else {
			ff := prefix.Snapshot()
			for _, c := range f.Clauses() {
				if !c.Hard() {
					ff.AddSoft(c.Weight, c.Lits...)
				}
			}
			inst = NewInstance(ff, b, opts)
		}
		gotMin, err := solve(ctx, inst.problem(false), opts)
		if err != nil {
			t.Fatalf("seed %#x: min: %v", seed, err)
		}
		gotMax, err := solve(ctx, inst.problem(true), opts)
		if err != nil {
			t.Fatalf("seed %#x: max: %v", seed, err)
		}
		if gotMin.Satisfiable != legacyMin.Satisfiable ||
			(gotMin.Satisfiable && gotMin.Optimum != legacyMin.Optimum) {
			t.Logf("seed %#x base=%v: min %+v vs legacy %+v", seed, b != nil, gotMin, legacyMin)
			return false
		}
		if gotMax.Satisfiable != legacyMax.Satisfiable ||
			(gotMax.Satisfiable && gotMax.Optimum != legacyMax.Optimum) {
			t.Logf("seed %#x base=%v: max %+v vs legacy %+v", seed, b != nil, gotMax, legacyMax)
			return false
		}
		// The returned models must achieve the reported objectives on
		// the original formula.
		if gotMin.Satisfiable {
			hardOK, satW, _ := f.Eval(gotMin.Model)
			if !hardOK || satW != gotMin.Optimum {
				t.Logf("seed %#x: min model does not achieve optimum", seed)
				return false
			}
		}
		if gotMax.Satisfiable {
			hardOK, _, falsW := f.Eval(gotMax.Model)
			if !hardOK || falsW != gotMax.Optimum {
				t.Logf("seed %#x: max model does not achieve optimum", seed)
				return false
			}
		}
	}
	return true
}

// TestInstanceMatchesLegacyRandom is the satellite property test: the
// incremental Instance path must report the same min/max optima as the
// legacy two-formula path over the randomized corpus, for MaxHS and RC2
// each run directly.
func TestInstanceMatchesLegacyRandom(t *testing.T) {
	for _, alg := range algorithms() {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			fn := func(seed uint64) bool {
				return checkInstanceAgainstLegacy(t, seed, alg.solve, alg.solve, Options{})
			}
			if err := quick.Check(fn, &quick.Config{MaxCount: 120}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestInstanceFallbackMatchesLegacy drives the MaxHS→RC2 fallback (node
// budget 1 aborts every exact hitting-set solve) through the Instance
// path and checks it agrees with RC2 alone on the legacy path.
func TestInstanceFallbackMatchesLegacy(t *testing.T) {
	opts := Options{HSNodeBudget: 1}
	fn := func(seed uint64) bool {
		return checkInstanceAgainstLegacy(t, seed, solveRC2, solveProblem, opts)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestInstanceHardUnsat: inconsistent hard clauses surface as
// Satisfiable == false in both directions, with and without a base.
func TestInstanceHardUnsat(t *testing.T) {
	f := cnf.New(1)
	f.AddHard(1)
	f.AddHard(-1)
	base := NewHardBase(f)
	f.AddSoft(3, 1)
	for _, b := range []*HardBase{nil, base} {
		inst := NewInstance(f, b, Options{})
		if res, err := inst.SolveMin(context.Background()); err != nil || res.Satisfiable {
			t.Fatalf("min: res=%+v err=%v", res, err)
		}
		if res, err := inst.SolveMax(context.Background()); err != nil || res.Satisfiable {
			t.Fatalf("max: res=%+v err=%v", res, err)
		}
	}
}

// TestReleaseRejectsDirtyInstance is the regression test for the
// adoption-chain bug: an instance whose NewInstance added suffix or
// selector clauses must NOT hand its base back to the shared HardBase
// on Release, even though its adopted run solvers report
// AddedSinceClone() == 0 (the counter resets at every fork). If the
// dirty base leaked, a second instance over the same HardBase would
// re-allocate the leaked aux variable numbers with new meanings and
// solve garbage.
func TestReleaseRejectsDirtyInstance(t *testing.T) {
	hard := cnf.New(3)
	hard.AddHard(1, 2, 3)
	base := NewHardBase(hard)

	// Non-unit soft clauses force relaxation/negation aux clauses.
	f1 := hard.Snapshot()
	f1.AddSoft(2, 1, 2)
	f1.AddSoft(5, 2, 3)
	inst1 := NewInstance(f1, base, Options{})
	if _, err := inst1.SolveMin(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := inst1.SolveMax(context.Background()); err != nil {
		t.Fatal(err)
	}
	inst1.Release()

	// A second, different soft layer over the same base must still agree
	// with the legacy path in both directions.
	f2 := hard.Snapshot()
	f2.AddSoft(3, -1, -2)
	f2.AddSoft(1, -3)
	inst2 := NewInstance(f2, base, Options{})
	legacyMin, err := Solve(f2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	legacyMax, err := Solve(f2.NegateSoft(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	gotMin, err := inst2.SolveMin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	gotMax, err := inst2.SolveMax(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if gotMin.Satisfiable != legacyMin.Satisfiable || gotMin.Optimum != legacyMin.Optimum {
		t.Fatalf("min after dirty Release: %+v vs legacy %+v", gotMin, legacyMin)
	}
	if gotMax.Satisfiable != legacyMax.Satisfiable || gotMax.Optimum != legacyMax.Optimum {
		t.Fatalf("max after dirty Release: %+v vs legacy %+v", gotMax, legacyMax)
	}
}

// TestReleaseAdoptsCleanInstance: a unit-soft-only instance (no clauses
// beyond the snapshot) does hand its learnt-enriched base back, and
// later instances remain correct.
func TestReleaseAdoptsCleanInstance(t *testing.T) {
	hard := cnf.New(4)
	hard.AddHard(1, 2)
	hard.AddHard(-1, -2)
	hard.AddHard(3, 4)
	base := NewHardBase(hard)
	for trial := 0; trial < 3; trial++ {
		f := hard.Snapshot()
		f.AddSoft(int64(1+trial), 1)
		f.AddSoft(2, -2)
		f.AddSoft(3, 4)
		inst := NewInstance(f, base, Options{})
		legacyMin, err := Solve(f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		gotMin, err := inst.SolveMin(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if gotMin.Optimum != legacyMin.Optimum {
			t.Fatalf("trial %d: min %d vs legacy %d", trial, gotMin.Optimum, legacyMin.Optimum)
		}
		inst.Release()
	}
}

// TestInstanceKuegelNegation pins the weight-view semantics on the
// KuegelNegationMinSAT example: SolveMax must equal the brute-force
// maximum falsified weight.
func TestInstanceKuegelNegation(t *testing.T) {
	f := cnf.New(3)
	f.AddHard(1, 2, 3)
	f.AddSoft(2, 1, 2)
	f.AddSoft(3, 2, 3)
	f.AddSoft(1, -1)
	var maxFals int64 = -1
	for m := 0; m < 8; m++ {
		assign := []bool{false, m&1 != 0, m&2 != 0, m&4 != 0}
		hardOK, _, falsW := f.Eval(assign)
		if hardOK && falsW > maxFals {
			maxFals = falsW
		}
	}
	for _, alg := range algorithms() {
		inst := NewInstance(f, nil, Options{})
		res, err := alg.solve(context.Background(), inst.problem(true), Options{})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !res.Satisfiable || res.Optimum != maxFals {
			t.Fatalf("%v: Optimum=%d want %d", alg, res.Optimum, maxFals)
		}
	}
}

// benchComponent builds a repair-shaped instance: nGroups key-groups of
// three facts with at-least-one/at-most-one hard clauses, and one
// weighted soft unit per fact — the structure sumCountFromBag emits.
func benchComponent(nGroups int) *cnf.Formula {
	f := cnf.New(3 * nGroups)
	for g := 0; g < nGroups; g++ {
		a, b, c := cnf.Lit(3*g+1), cnf.Lit(3*g+2), cnf.Lit(3*g+3)
		f.AddHard(a, b, c)
		f.AddHard(-a, -b)
		f.AddHard(-a, -c)
		f.AddHard(-b, -c)
	}
	for v := 1; v <= 3*nGroups; v++ {
		f.AddSoft(int64(1+(v*7)%13), cnf.Lit(v))
	}
	return f
}

// BenchmarkBothDirections compares the legacy two-formula path (fresh
// solver per direction plus the NegateSoft deep copy) against the
// shared-base Instance path, per algorithm.
func BenchmarkBothDirections(b *testing.B) {
	ctx := context.Background()
	f := benchComponent(60)
	for _, alg := range algorithms() {
		b.Run("legacy/"+alg.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := solveWith(ctx, alg, f, Options{}); err != nil {
					b.Fatal(err)
				}
				if _, err := solveWith(ctx, alg, f.NegateSoft(), Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("instance/"+alg.String(), func(b *testing.B) {
			b.ReportAllocs()
			base := NewHardBase(hardPrefix(f))
			for i := 0; i < b.N; i++ {
				inst := NewInstance(f, base, Options{})
				if _, err := alg.solve(ctx, inst.problem(false), Options{}); err != nil {
					b.Fatal(err)
				}
				if _, err := alg.solve(ctx, inst.problem(true), Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// hardPrefix rebuilds just the hard clauses of f (which precede the
// softs in the benchmark formulas).
func hardPrefix(f *cnf.Formula) *cnf.Formula {
	out := cnf.New(f.NumVars())
	for _, c := range f.Clauses() {
		if c.Hard() {
			out.AddHard(c.Lits...)
		}
	}
	return out
}
