package maxsat

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/quick"

	"aggcavsat/internal/cnf"
	"aggcavsat/internal/sat"
)

// bruteForceOptimum exhaustively computes the WPMaxSAT optimum of f:
// the maximum satisfied soft weight over assignments meeting all hard
// clauses, or ok=false if the hard clauses are unsatisfiable.
func bruteForceOptimum(f *cnf.Formula) (opt int64, ok bool) {
	n := f.NumVars()
	opt = -1
	for m := 0; m < 1<<n; m++ {
		assign := make([]bool, n+1)
		for v := 1; v <= n; v++ {
			assign[v] = m&(1<<(v-1)) != 0
		}
		hardOK, satW, _ := f.Eval(assign)
		if hardOK && satW > opt {
			opt = satW
		}
	}
	if opt < 0 {
		return 0, false
	}
	return opt, true
}

func TestSimpleWeighted(t *testing.T) {
	// (x1, 3) and (¬x1, 5) conflict: optimum keeps the heavier one.
	f := cnf.New(1)
	f.AddSoft(3, 1)
	f.AddSoft(5, -1)
	res, err := Solve(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfiable || res.Optimum != 5 || res.FalsifiedWeight != 3 {
		t.Errorf("%+v", res)
	}
	if res.Model[1] {
		t.Error("model should set x1 false")
	}
}

func TestAllSoftSatisfiable(t *testing.T) {
	f := cnf.New(3)
	f.AddHard(1, 2)
	f.AddSoft(2, 1)
	f.AddSoft(2, 3)
	res, err := Solve(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimum != 4 || res.FalsifiedWeight != 0 {
		t.Errorf("%+v", res)
	}
}

// TestHardUnsat: inconsistent hard clauses surface as Satisfiable ==
// false in both directions, on f and on its negation.
func TestHardUnsat(t *testing.T) {
	f := cnf.New(1)
	f.AddHard(1)
	f.AddHard(-1)
	f.AddSoft(9, 1)
	for dir, g := range []*cnf.Formula{f, f.NegateSoft()} {
		if res, err := Solve(g, Options{}); err != nil || res.Satisfiable {
			t.Errorf("dir %d: res=%+v err=%v", dir, res, err)
		}
	}
}

func TestNoSoftClauses(t *testing.T) {
	f := cnf.New(2)
	f.AddHard(1, 2)
	res, err := Solve(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfiable || res.Optimum != 0 {
		t.Errorf("%+v", res)
	}
}

func TestNonUnitSoftClauses(t *testing.T) {
	// Hard: exactly-one of x1,x2,x3. Softs reference pairs.
	f := cnf.New(3)
	f.AddHard(1, 2, 3)
	f.AddHard(-1, -2)
	f.AddHard(-1, -3)
	f.AddHard(-2, -3)
	f.AddSoft(4, 1, 2) // satisfied unless x3 chosen
	f.AddSoft(3, 2, 3) // satisfied unless x1 chosen
	f.AddSoft(2, -2)   // falsified iff x2 chosen
	want, _ := bruteForceOptimum(f)
	res, err := Solve(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimum != want {
		t.Errorf("optimum = %d, want %d", res.Optimum, want)
	}
}

func TestDuplicateSoftMerge(t *testing.T) {
	// Two identical soft units must behave like one of double weight.
	f := cnf.New(1)
	f.AddSoft(2, 1)
	f.AddSoft(2, 1)
	f.AddSoft(3, -1)
	res, err := Solve(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimum != 4 {
		t.Errorf("optimum = %d, want 4", res.Optimum)
	}
}

func TestCardinalityChain(t *testing.T) {
	// At most 2 of 5 variables may be true (pairwise hard constraints
	// replaced by a budget expressed in softs): maximize unit softs.
	f := cnf.New(5)
	// Hard: x_i -> x_{i+1} false for a chain that allows at most
	// alternating trues; simpler: pairwise exclusion for first three.
	f.AddHard(-1, -2)
	f.AddHard(-2, -3)
	f.AddHard(-1, -3)
	for v := 1; v <= 5; v++ {
		f.AddSoft(1, cnf.Lit(v))
	}
	want, _ := bruteForceOptimum(f)
	res, err := Solve(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimum != want {
		t.Errorf("optimum = %d, want %d", res.Optimum, want)
	}
}

func TestModelAchievesOptimum(t *testing.T) {
	f := cnf.New(4)
	f.AddHard(1, 2)
	f.AddHard(-3, 4)
	f.AddSoft(5, -1)
	f.AddSoft(4, -2)
	f.AddSoft(3, 3)
	f.AddSoft(2, -4)
	res, err := Solve(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hardOK, satW, _ := f.Eval(res.Model)
	if !hardOK {
		t.Fatal("model violates hard clauses")
	}
	if satW != res.Optimum {
		t.Errorf("model achieves %d, reported %d", satW, res.Optimum)
	}
}

// randomWCNF builds a small random weighted partial formula: 3–7
// variables, up to 5 hard clauses and 1–8 soft clauses of 1–3 literals
// each, weights 1–7.
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
		lits := make([]cnf.Lit, 1+next(3))
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

// TestRandomAgainstBruteForce cross-checks the solver on random
// weighted partial formulas.
func TestRandomAgainstBruteForce(t *testing.T) {
	fn := func(seed uint64) bool {
		f := randomWCNF(seed)
		want, wantOK := bruteForceOptimum(f)
		res, err := Solve(f, Options{})
		if err != nil || res.Satisfiable != wantOK {
			return false
		}
		return !wantOK || res.Optimum == want
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// checkBothDirections solves f (the glb direction: maximum satisfied
// weight) and f.NegateSoft() (the lub direction: maximum falsified
// weight of f) with opts and compares each optimum to brute force. Each
// returned model must achieve its optimum on f. It reports whether both
// directions agreed.
func checkBothDirections(t *testing.T, f *cnf.Formula, opts Options) bool {
	t.Helper()
	n := f.NumVars()
	wantSat, wantFals := int64(-1), int64(-1)
	for m := 0; m < 1<<n; m++ {
		assign := make([]bool, n+1)
		for v := 1; v <= n; v++ {
			assign[v] = m&(1<<(v-1)) != 0
		}
		if hardOK, satW, falsW := f.Eval(assign); hardOK {
			wantSat, wantFals = max(wantSat, satW), max(wantFals, falsW)
		}
	}
	for dir, g := range []*cnf.Formula{f, f.NegateSoft()} {
		res, err := Solve(g, opts)
		if err != nil {
			t.Fatalf("dir %d: %v", dir, err)
		}
		want := []int64{wantSat, wantFals}[dir]
		if res.Satisfiable != (want >= 0) || (want >= 0 && res.Optimum != want) {
			t.Logf("dir %d: %+v, brute force %d", dir, res, want)
			return false
		}
		if !res.Satisfiable {
			continue
		}
		hardOK, satW, falsW := f.Eval(res.Model[:n+1])
		if got := []int64{satW, falsW}[dir]; !hardOK || got != want {
			t.Logf("dir %d: model achieves %d (hard %v), optimum %d", dir, got, hardOK, want)
			return false
		}
	}
	return true
}

// TestSolveContextBothDirections pins the one solve path the reductions
// take: SolveContext on f and on f.NegateSoft() agrees with brute force
// in both directions, optima and models.
func TestSolveContextBothDirections(t *testing.T) {
	fn := func(seed uint64) bool { return checkBothDirections(t, randomWCNF(seed), Options{}) }
	if err := quick.Check(fn, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestInstanceMatchesLegacyRandom checks the built-in algorithm in both
// directions against the brute-force reference while it is observed and
// bounded: a ProgressFunc reporting at every conflict (the kind of
// consumer `cavsat -v` installs) and a conflict budget too large to
// bind. Neither may change the optima or the models.
func TestInstanceMatchesLegacyRandom(t *testing.T) {
	t.Run(AlgRC2.String(), func(t *testing.T) {
		reports := 0
		opts := Options{
			ConflictBudget: 1 << 40,
			Progress:       func(ProgressInfo) { reports++ },
			ProgressEvery:  1,
		}
		fn := func(seed uint64) bool { return checkBothDirections(t, randomWCNF(seed), opts) }
		if err := quick.Check(fn, &quick.Config{MaxCount: 120}); err != nil {
			t.Error(err)
		}
		if reports == 0 {
			t.Error("no progress report reached the ProgressFunc")
		}
	})
}

// TestJointlyUnsatHardClauses: hard clauses that are unsatisfiable only
// together (every two of them are satisfiable) surface as Satisfiable ==
// false in both directions, with non-unit soft clauses present.
func TestJointlyUnsatHardClauses(t *testing.T) {
	f := cnf.New(2)
	f.AddHard(1, 2)
	f.AddHard(-1, 2)
	f.AddHard(1, -2)
	f.AddHard(-1, -2)
	f.AddSoft(3, 1, 2)
	f.AddSoft(4, -1)
	if !checkBothDirections(t, f, Options{}) {
		t.Error("jointly unsat hard clauses not reported as unsatisfiable")
	}
}

// kuegelFormula is the KuegelNegationMinSAT example: one hard clause
// over three variables and three soft clauses.
func kuegelFormula() *cnf.Formula {
	f := cnf.New(3)
	f.AddHard(1, 2, 3)
	f.AddSoft(2, 1, 2)
	f.AddSoft(3, 2, 3)
	f.AddSoft(1, -1)
	return f
}

// TestKuegelNegationMaxFalsified pins the lub direction on the
// KuegelNegationMinSAT example: the solve of f.NegateSoft() must report
// the brute-force maximum falsified weight of f.
func TestKuegelNegationMaxFalsified(t *testing.T) {
	f := kuegelFormula()
	var maxFals int64 = -1
	for m := 0; m < 8; m++ {
		assign := []bool{false, m&1 != 0, m&2 != 0, m&4 != 0}
		hardOK, _, falsW := f.Eval(assign)
		if hardOK && falsW > maxFals {
			maxFals = falsW
		}
	}
	res, err := Solve(f.NegateSoft(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfiable || res.Optimum != maxFals {
		t.Fatalf("Optimum=%d want %d", res.Optimum, maxFals)
	}
}

// TestKuegelNegationMinSAT checks the paper's lub pipeline end to end at
// the MaxSAT level: minimizing satisfied soft weight via NegateSoft.
func TestKuegelNegationMinSAT(t *testing.T) {
	f := kuegelFormula()

	// Brute-force minimum satisfied soft weight subject to hard clauses.
	minSat := int64(1 << 62)
	for m := 0; m < 8; m++ {
		assign := []bool{false, m&1 != 0, m&2 != 0, m&4 != 0}
		hardOK, satW, _ := f.Eval(assign)
		if hardOK && satW < minSat {
			minSat = satW
		}
	}
	res, err := Solve(f.NegateSoft(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.TotalSoftWeight() - res.Optimum; got != minSat {
		t.Errorf("min satisfied = %d, want %d", got, minSat)
	}
}

func TestTotalizerSemantics(t *testing.T) {
	// For every input subset, assuming ¬out[j] must cap the count at j.
	s := sat.New()
	n := 5
	inputs := make([]cnf.Lit, n)
	for i := range inputs {
		inputs[i] = cnf.Lit(s.NewVar())
	}
	outs := buildTotalizer(s, inputs)
	if len(outs) != n {
		t.Fatalf("totalizer outputs = %d, want %d", len(outs), n)
	}
	for bound := 0; bound < n; bound++ {
		// Assume ¬out[bound] ("count < bound+1") plus bound+1 inputs true:
		// must be UNSAT.
		assumptions := []cnf.Lit{outs[bound].Neg()}
		for i := 0; i <= bound; i++ {
			assumptions = append(assumptions, inputs[i])
		}
		if st := s.Solve(assumptions...); st != sat.Unsat {
			t.Errorf("bound %d: %d inputs true should violate cap, got %v", bound, bound+1, st)
		}
		// With only `bound` inputs true it must be SAT.
		assumptions = []cnf.Lit{outs[bound].Neg()}
		for i := 0; i < bound; i++ {
			assumptions = append(assumptions, inputs[i])
		}
		for i := bound; i < n; i++ {
			assumptions = append(assumptions, inputs[i].Neg())
		}
		if st := s.Solve(assumptions...); st != sat.Sat {
			t.Errorf("bound %d: %d inputs true should satisfy cap, got %v", bound, bound, st)
		}
	}
}

func TestParseSolverOutputLiteralModel(t *testing.T) {
	f := cnf.New(2)
	f.AddHard(1, 2)
	f.AddSoft(3, -1)
	out := []byte("c comment\no 0\ns OPTIMUM FOUND\nv -1 2 0\n")
	res, err := ParseSolverOutput(f, out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfiable || res.Optimum != 3 || res.Model[1] || !res.Model[2] {
		t.Errorf("%+v", res)
	}
}

func TestParseSolverOutputBitModel(t *testing.T) {
	f := cnf.New(2)
	f.AddHard(1, 2)
	f.AddSoft(3, -1)
	out := []byte("s OPTIMUM FOUND\nv 01\n")
	res, err := ParseSolverOutput(f, out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model[1] || !res.Model[2] {
		t.Errorf("bit model parsed wrong: %+v", res.Model)
	}
}

func TestParseSolverOutputUnsat(t *testing.T) {
	f := cnf.New(1)
	res, err := ParseSolverOutput(f, []byte("s UNSATISFIABLE\n"))
	if err != nil || res.Satisfiable {
		t.Errorf("%+v, %v", res, err)
	}
}

func TestParseSolverOutputErrors(t *testing.T) {
	f := cnf.New(1)
	f.AddSoft(1, 1)
	cases := [][]byte{
		[]byte(""),                              // no status
		[]byte("s OPTIMUM FOUND\n"),             // no model
		[]byte("s OPTIMUM FOUND\nv x 0\n"),      // bad literal
		[]byte("o 1\ns OPTIMUM FOUND\nv 1 0\n"), // cost mismatch (model satisfies)
		[]byte("s SATISFIABLE\nv 1 0\n"),        // non-optimal status
	}
	for i, c := range cases {
		if _, err := ParseSolverOutput(f, c); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestExternalViaFakeSolver runs the full external pipeline against a
// tiny shell script standing in for an external MaxSAT binary.
func TestExternalViaFakeSolver(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("shell-script fake solver")
	}
	dir := t.TempDir()
	script := filepath.Join(dir, "fakesolver.sh")
	// The fake solver ignores its input and prints a fixed optimum for
	// the specific formula below (x1 false satisfies the weight-5 soft).
	body := "#!/bin/sh\necho 's OPTIMUM FOUND'\necho 'o 3'\necho 'v -1 0'\n"
	if err := os.WriteFile(script, []byte(body), 0o755); err != nil {
		t.Fatal(err)
	}
	f := cnf.New(1)
	f.AddSoft(3, 1)
	f.AddSoft(5, -1)
	res, err := Solve(f, Options{SolverPath: script})
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimum != 5 || res.FalsifiedWeight != 3 {
		t.Errorf("%+v", res)
	}
}

func TestExternalMissingPath(t *testing.T) {
	// A solver path that names no binary must fail the solve, not fall
	// back to the built-in solver.
	f := cnf.New(1)
	f.AddSoft(1, 1)
	if _, err := Solve(f, Options{SolverPath: filepath.Join(t.TempDir(), "no-such-solver")}); err == nil {
		t.Error("missing solver binary should error")
	}
}

func TestConflictBudgetExhaustion(t *testing.T) {
	// A hard pigeonhole-style instance with a tiny budget must error,
	// not loop.
	f := cnf.New(0)
	n := 6
	v := func(p, h int) cnf.Lit { return cnf.Lit(p*n + h + 1) }
	for p := 0; p < n+1; p++ {
		lits := make([]cnf.Lit, n)
		for h := 0; h < n; h++ {
			lits[h] = v(p, h)
		}
		f.AddHard(lits...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 < n+1; p1++ {
			for p2 := p1 + 1; p2 < n+1; p2++ {
				f.AddHard(-v(p1, h), -v(p2, h))
			}
		}
	}
	f.AddSoft(1, 1)
	if _, err := Solve(f, Options{ConflictBudget: 3}); err == nil {
		t.Error("budget exhaustion should surface as an error")
	}
}
