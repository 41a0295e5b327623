package maxsat

import (
	"context"
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

// builtin is one in-tree strategy, called directly: the table tests
// pin RC2 against brute force on its own, not only behind a MaxHS
// hitting-set budget fallback.
type builtin struct {
	alg   Algorithm
	solve func(context.Context, *problem, Options, *tracker) (Result, error)
}

func (b builtin) String() string { return b.alg.String() }

var rc2Alone = builtin{AlgRC2, solveRC2}

func algorithms() []builtin { return []builtin{{AlgMaxHS, solveMaxHS}, rc2Alone} }

// solveWith runs one built-in on the one-shot formula path.
func solveWith(ctx context.Context, b builtin, f *cnf.Formula, opts Options) (Result, error) {
	return b.solve(ctx, formulaProblem(f), opts, newTracker(opts, nil))
}

func TestSimpleWeighted(t *testing.T) {
	// (x1, 3) and (¬x1, 5) conflict: optimum keeps the heavier one.
	f := cnf.New(1)
	f.AddSoft(3, 1)
	f.AddSoft(5, -1)
	for _, alg := range algorithms() {
		res, err := solveWith(context.Background(), alg, f, Options{})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !res.Satisfiable || res.Optimum != 5 || res.FalsifiedWeight != 3 {
			t.Errorf("%v: %+v", alg, res)
		}
		if res.Model[1] {
			t.Errorf("%v: model should set x1 false", alg)
		}
	}
}

func TestAllSoftSatisfiable(t *testing.T) {
	f := cnf.New(3)
	f.AddHard(1, 2)
	f.AddSoft(2, 1)
	f.AddSoft(2, 3)
	for _, alg := range algorithms() {
		res, err := solveWith(context.Background(), alg, f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Optimum != 4 || res.FalsifiedWeight != 0 {
			t.Errorf("%v: %+v", alg, res)
		}
	}
}

// TestHardUnsat: inconsistent hard clauses surface as Satisfiable ==
// false in both directions, on f and on its negation.
func TestHardUnsat(t *testing.T) {
	f := cnf.New(1)
	f.AddHard(1)
	f.AddHard(-1)
	f.AddSoft(9, 1)
	for _, g := range []*cnf.Formula{f, f.NegateSoft()} {
		for _, alg := range algorithms() {
			res, err := solveWith(context.Background(), alg, g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Satisfiable {
				t.Errorf("%v: unsat hard clauses not detected", alg)
			}
		}
		if res, err := SolveContext(context.Background(), g, Options{}); err != nil || res.Satisfiable {
			t.Errorf("SolveContext: res=%+v err=%v", res, err)
		}
	}
}

func TestNoSoftClauses(t *testing.T) {
	f := cnf.New(2)
	f.AddHard(1, 2)
	for _, alg := range algorithms() {
		res, err := solveWith(context.Background(), alg, f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Satisfiable || res.Optimum != 0 {
			t.Errorf("%v: %+v", alg, res)
		}
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
	for _, alg := range algorithms() {
		res, err := solveWith(context.Background(), alg, f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Optimum != want {
			t.Errorf("%v: optimum = %d, want %d", alg, res.Optimum, want)
		}
	}
}

func TestDuplicateSoftMerge(t *testing.T) {
	// Two identical soft units must behave like one of double weight.
	f := cnf.New(1)
	f.AddSoft(2, 1)
	f.AddSoft(2, 1)
	f.AddSoft(3, -1)
	for _, alg := range algorithms() {
		res, err := solveWith(context.Background(), alg, f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Optimum != 4 {
			t.Errorf("%v: optimum = %d, want 4", alg, res.Optimum)
		}
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
	for _, alg := range algorithms() {
		res, err := solveWith(context.Background(), alg, f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Optimum != want {
			t.Errorf("%v: optimum = %d, want %d", alg, res.Optimum, want)
		}
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
	for _, alg := range algorithms() {
		res, err := solveWith(context.Background(), alg, f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		hardOK, satW, _ := f.Eval(res.Model)
		if !hardOK {
			t.Fatalf("%v: model violates hard clauses", alg)
		}
		if satW != res.Optimum {
			t.Errorf("%v: model achieves %d, reported %d", alg, satW, res.Optimum)
		}
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

// TestRandomAgainstBruteForce cross-checks both algorithms on random
// weighted partial formulas.
func TestRandomAgainstBruteForce(t *testing.T) {
	fn := func(seed uint64) bool {
		f := randomWCNF(seed)
		want, wantOK := bruteForceOptimum(f)
		for _, alg := range algorithms() {
			res, err := solveWith(context.Background(), alg, f, Options{})
			if err != nil {
				return false
			}
			if res.Satisfiable != wantOK {
				return false
			}
			if wantOK && res.Optimum != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// checkBothDirections runs solve on f (the glb direction: maximum
// satisfied weight) and on f.NegateSoft() (the lub direction: maximum
// falsified weight of f) and compares each optimum to brute force. Each
// returned model must achieve its optimum on f. It reports whether both
// directions agreed and how many solves ended on RC2.
func checkBothDirections(t *testing.T, seed uint64, solve func(*cnf.Formula) (Result, error)) (ok bool, onRC2 int) {
	t.Helper()
	f := randomWCNF(seed)
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
		res, err := solve(g)
		if err != nil {
			t.Fatalf("seed %#x dir %d: %v", seed, dir, err)
		}
		if res.Algorithm == AlgRC2 {
			onRC2++
		}
		want := []int64{wantSat, wantFals}[dir]
		if res.Satisfiable != (want >= 0) || (want >= 0 && res.Optimum != want) {
			t.Logf("seed %#x dir %d: %+v, brute force %d", seed, dir, res, want)
			return false, onRC2
		}
		if !res.Satisfiable {
			continue
		}
		hardOK, satW, falsW := f.Eval(res.Model[:n+1])
		if got := []int64{satW, falsW}[dir]; !hardOK || got != want {
			t.Logf("seed %#x dir %d: model achieves %d (hard %v), optimum %d", seed, dir, got, hardOK, want)
			return false, onRC2
		}
	}
	return true, onRC2
}

// TestSolveContextBothDirections pins the one solve path the reductions
// take: SolveContext on f and on f.NegateSoft() agrees with brute force
// in both directions.
func TestSolveContextBothDirections(t *testing.T) {
	fn := func(seed uint64) bool {
		ok, _ := checkBothDirections(t, seed, func(g *cnf.Formula) (Result, error) {
			return SolveContext(context.Background(), g, Options{})
		})
		return ok
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestInstanceMatchesLegacyRandom runs each built-in directly (MaxHS
// and RC2, no fallback) on the two-formula path, f for the glb
// direction and f.NegateSoft() for the lub direction, and checks both
// optima and models against brute force.
func TestInstanceMatchesLegacyRandom(t *testing.T) {
	for _, alg := range algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			fn := func(seed uint64) bool {
				ok, _ := checkBothDirections(t, seed, func(g *cnf.Formula) (Result, error) {
					return solveWith(context.Background(), alg, g, Options{})
				})
				return ok
			}
			if err := quick.Check(fn, &quick.Config{MaxCount: 120}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestInstanceFallbackMatchesLegacy drives the MaxHS→RC2 fallback
// through SolveContext (a hitting-set node budget of 1 aborts every
// exact hitting-set solve) and checks both directions against brute
// force; at least one solve must actually have fallen back.
func TestInstanceFallbackMatchesLegacy(t *testing.T) {
	onRC2 := 0
	fn := func(seed uint64) bool {
		ok, n := checkBothDirections(t, seed, func(g *cnf.Formula) (Result, error) {
			return SolveContext(context.Background(), g, Options{HSNodeBudget: 1})
		})
		onRC2 += n
		return ok
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	if onRC2 == 0 {
		t.Error("no solve fell back to RC2")
	}
}

// TestInstanceHardUnsat: hard clauses that are unsatisfiable only
// together (every two of them are satisfiable) surface as Satisfiable ==
// false in both directions, with non-unit soft clauses present, on each
// built-in and on SolveContext with and without the forced fallback.
func TestInstanceHardUnsat(t *testing.T) {
	f := cnf.New(2)
	f.AddHard(1, 2)
	f.AddHard(-1, 2)
	f.AddHard(1, -2)
	f.AddHard(-1, -2)
	f.AddSoft(3, 1, 2)
	f.AddSoft(4, -1)
	ctx := context.Background()
	for dir, g := range []*cnf.Formula{f, f.NegateSoft()} {
		for _, alg := range algorithms() {
			if res, err := solveWith(ctx, alg, g, Options{}); err != nil || res.Satisfiable {
				t.Errorf("dir %d %v: res=%+v err=%v", dir, alg, res, err)
			}
		}
		for _, opts := range []Options{{}, {HSNodeBudget: 1}} {
			if res, err := SolveContext(ctx, g, opts); err != nil || res.Satisfiable {
				t.Errorf("dir %d SolveContext%+v: res=%+v err=%v", dir, opts, res, err)
			}
		}
	}
}

// TestInstanceKuegelNegation pins the lub direction on the
// KuegelNegationMinSAT example: each built-in on f.NegateSoft() must
// report the brute-force maximum falsified weight of f.
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
	neg := f.NegateSoft()
	for _, alg := range algorithms() {
		res, err := solveWith(context.Background(), alg, neg, Options{})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !res.Satisfiable || res.Optimum != maxFals {
			t.Fatalf("%v: Optimum=%d want %d", alg, res.Optimum, maxFals)
		}
	}
}

// TestKuegelNegationMinSAT checks the paper's lub pipeline end to end at
// the MaxSAT level: minimizing satisfied soft weight via NegateSoft.
func TestKuegelNegationMinSAT(t *testing.T) {
	f := cnf.New(3)
	f.AddHard(1, 2, 3)
	f.AddSoft(2, 1, 2)
	f.AddSoft(3, 2, 3)
	f.AddSoft(1, -1)

	// Brute-force minimum satisfied soft weight subject to hard clauses.
	minSat := int64(1 << 62)
	for m := 0; m < 8; m++ {
		assign := []bool{false, m&1 != 0, m&2 != 0, m&4 != 0}
		hardOK, satW, _ := f.Eval(assign)
		if hardOK && satW < minSat {
			minSat = satW
		}
	}
	neg := f.NegateSoft()
	for _, alg := range algorithms() {
		res, err := solveWith(context.Background(), alg, neg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got := f.TotalSoftWeight() - res.Optimum
		if got != minSat {
			t.Errorf("%v: min satisfied = %d, want %d", alg, got, minSat)
		}
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
// tiny shell script standing in for MaxHS.
func TestExternalViaFakeSolver(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("shell-script fake solver")
	}
	dir := t.TempDir()
	script := filepath.Join(dir, "fakemaxhs.sh")
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
	if _, err := solveWith(context.Background(), rc2Alone, f, Options{ConflictBudget: 3}); err == nil {
		t.Error("budget exhaustion should surface as an error")
	}
}
