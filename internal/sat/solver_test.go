package sat

import (
	"fmt"
	"testing"
	"testing/quick"

	"aggcavsat/internal/cnf"
)

func TestLubySequence(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestLitConversion(t *testing.T) {
	for _, l := range []cnf.Lit{1, -1, 42, -42} {
		if fromCNF(l).toCNF() != l {
			t.Errorf("round trip of %d failed", l)
		}
	}
	if mkLit(0, false).neg() != mkLit(0, true) {
		t.Error("neg")
	}
}

func TestTrivialSat(t *testing.T) {
	s := New()
	s.AddClause(1)
	if st := s.Solve(); st != Sat {
		t.Fatalf("status = %v", st)
	}
	if !s.Model()[1] {
		t.Error("x1 should be true")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := New()
	s.AddClause(1)
	ok := s.AddClause(-1)
	if ok {
		t.Error("AddClause should detect top-level conflict")
	}
	if st := s.Solve(); st != Unsat {
		t.Fatalf("status = %v", st)
	}
}

func TestEmptyFormula(t *testing.T) {
	s := New()
	if st := s.Solve(); st != Sat {
		t.Fatalf("empty formula should be SAT, got %v", st)
	}
}

func TestTautologyDropped(t *testing.T) {
	s := New()
	s.AddClause(1, -1)
	s.AddClause(2)
	if st := s.Solve(); st != Sat {
		t.Fatal("tautology broke solving")
	}
}

func TestDuplicateLiterals(t *testing.T) {
	s := New()
	s.AddClause(1, 1, 1)
	if st := s.Solve(); st != Sat || !s.Model()[1] {
		t.Fatal("duplicate literals mishandled")
	}
}

func TestThreeChain(t *testing.T) {
	// x1, x1->x2, x2->x3, check all forced true.
	s := New()
	s.AddClause(1)
	s.AddClause(-1, 2)
	s.AddClause(-2, 3)
	if st := s.Solve(); st != Sat {
		t.Fatal(st)
	}
	m := s.Model()
	if !m[1] || !m[2] || !m[3] {
		t.Errorf("model = %v", m)
	}
}

// pigeonhole encodes PHP(n+1, n): n+1 pigeons into n holes, always UNSAT.
func pigeonhole(s *Solver, pigeons, holes int) {
	v := func(p, h int) cnf.Lit { return cnf.Lit(p*holes + h + 1) }
	for p := 0; p < pigeons; p++ {
		lits := make([]cnf.Lit, holes)
		for h := 0; h < holes; h++ {
			lits[h] = v(p, h)
		}
		s.AddClause(lits...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(-v(p1, h), -v(p2, h))
			}
		}
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 6; n++ {
		s := New()
		pigeonhole(s, n+1, n)
		if st := s.Solve(); st != Unsat {
			t.Fatalf("PHP(%d,%d) = %v, want UNSAT", n+1, n, st)
		}
	}
}

func TestPigeonholeSat(t *testing.T) {
	s := New()
	pigeonhole(s, 5, 5)
	if st := s.Solve(); st != Sat {
		t.Fatalf("PHP(5,5) = %v, want SAT", st)
	}
	// Verify the model is a valid assignment of pigeons to distinct holes.
	m := s.Model()
	used := make(map[int]bool)
	for p := 0; p < 5; p++ {
		hole := -1
		for h := 0; h < 5; h++ {
			if m[p*5+h+1] {
				hole = h
			}
		}
		if hole == -1 {
			t.Fatalf("pigeon %d unplaced", p)
		}
		if used[hole] {
			t.Fatalf("hole %d reused", hole)
		}
		used[hole] = true
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	s.AddClause(-1, 2) // x1 -> x2
	s.AddClause(-2, 3) // x2 -> x3

	if st := s.Solve(1, -3); st != Unsat {
		t.Fatalf("assuming x1 and ¬x3 should be UNSAT, got %v", st)
	}
	core := s.Core()
	if len(core) == 0 || len(core) > 2 {
		t.Fatalf("core = %v", core)
	}
	coreSet := map[cnf.Lit]bool{}
	for _, l := range core {
		coreSet[l] = true
	}
	for l := range coreSet {
		if l != 1 && l != -3 {
			t.Fatalf("core contains non-assumption %v", l)
		}
	}

	// Incrementality: the same solver answers SAT for compatible assumptions.
	if st := s.Solve(1, 3); st != Sat {
		t.Fatalf("assuming x1 and x3 should be SAT, got %v", st)
	}
	if m := s.Model(); !m[1] || !m[2] || !m[3] {
		t.Errorf("model = %v", m)
	}
	// And with no assumptions at all.
	if st := s.Solve(); st != Sat {
		t.Fatal("no-assumption solve after assumption solve failed")
	}
}

func TestAssumptionConflictingPair(t *testing.T) {
	s := New()
	s.AddClause(1, 2) // keep the solver non-trivial
	if st := s.Solve(3, -3); st != Unsat {
		t.Fatalf("x3 and ¬x3 assumed: %v", st)
	}
}

func TestCoreMinimalEnough(t *testing.T) {
	// x1..x4 assumed; only x1,x2 conflict via clause (¬x1 ∨ ¬x2).
	s := New()
	s.AddClause(-1, -2)
	if st := s.Solve(1, 2, 3, 4); st != Unsat {
		t.Fatal("expected UNSAT")
	}
	core := s.Core()
	for _, l := range core {
		if l != 1 && l != 2 {
			t.Fatalf("core %v mentions irrelevant assumption", core)
		}
	}
	if len(core) != 2 {
		t.Fatalf("core %v should have both x1 and x2", core)
	}
}

func TestAddFormulaHard(t *testing.T) {
	f := cnf.New(3)
	f.AddHard(1, 2)
	f.AddSoft(5, 3) // ignored by AddFormulaHard
	f.AddHard(-1)
	s := New()
	if !s.AddFormulaHard(f) {
		t.Fatal("formula should be consistent")
	}
	if st := s.Solve(); st != Sat {
		t.Fatal(st)
	}
	if m := s.Model(); !m[2] {
		t.Error("x2 forced by hard clauses")
	}
}

func TestConflictBudget(t *testing.T) {
	s := New()
	pigeonhole(s, 9, 8)
	s.SetConflictBudget(5)
	if st := s.Solve(); st != Unknown {
		t.Fatalf("budgeted solve = %v, want Unknown", st)
	}
	s.SetConflictBudget(0)
	if st := s.Solve(); st != Unsat {
		t.Fatalf("unbudgeted solve = %v, want Unsat", st)
	}
}

func TestStatsAccumulate(t *testing.T) {
	s := New()
	pigeonhole(s, 4, 3)
	s.Solve()
	if s.Stats.Solves != 1 || s.Stats.Conflicts == 0 {
		t.Errorf("stats = %+v", s.Stats)
	}
}

// bruteForceSat exhaustively checks satisfiability of a clause set over n
// variables.
func bruteForceSat(n int, clauses [][]cnf.Lit) bool {
	for m := 0; m < 1<<n; m++ {
		ok := true
		for _, c := range clauses {
			sat := false
			for _, l := range c {
				v := l.Var()
				val := m&(1<<(v-1)) != 0
				if val == l.Positive() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// TestRandomAgainstBruteForce cross-checks the solver on random small
// 3-CNF formulas.
func TestRandomAgainstBruteForce(t *testing.T) {
	fn := func(seed uint64) bool {
		rng := seed | 1
		next := func(n int) int {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return int(rng % uint64(n))
		}
		nVars := 3 + next(6) // 3..8
		nCls := 2 + next(25) // 2..26
		clauses := make([][]cnf.Lit, nCls)
		for i := range clauses {
			k := 1 + next(3)
			c := make([]cnf.Lit, k)
			for j := range c {
				v := 1 + next(nVars)
				if next(2) == 0 {
					c[j] = cnf.Lit(v)
				} else {
					c[j] = cnf.Lit(-v)
				}
			}
			clauses[i] = c
		}
		s := New()
		s.EnsureVars(nVars)
		for _, c := range clauses {
			s.AddClause(c...)
		}
		got := s.Solve()
		want := bruteForceSat(nVars, clauses)
		if (got == Sat) != want {
			return false
		}
		if got == Sat {
			// The model must satisfy every clause.
			m := s.Model()
			for _, c := range clauses {
				sat := false
				for _, l := range c {
					if m[l.Var()] == l.Positive() {
						sat = true
						break
					}
				}
				if !sat {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRandomAssumptionsAgainstBruteForce checks assumption solving and
// core soundness on random formulas.
func TestRandomAssumptionsAgainstBruteForce(t *testing.T) {
	fn := func(seed uint64) bool {
		rng := seed | 1
		next := func(n int) int {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return int(rng % uint64(n))
		}
		nVars := 4 + next(4)
		nCls := 3 + next(18)
		clauses := make([][]cnf.Lit, nCls)
		for i := range clauses {
			k := 1 + next(3)
			c := make([]cnf.Lit, k)
			for j := range c {
				v := 1 + next(nVars)
				if next(2) == 0 {
					c[j] = cnf.Lit(v)
				} else {
					c[j] = cnf.Lit(-v)
				}
			}
			clauses[i] = c
		}
		nAssume := 1 + next(3)
		seen := map[int]bool{}
		var assume []cnf.Lit
		for len(assume) < nAssume {
			v := 1 + next(nVars)
			if seen[v] {
				continue
			}
			seen[v] = true
			if next(2) == 0 {
				assume = append(assume, cnf.Lit(v))
			} else {
				assume = append(assume, cnf.Lit(-v))
			}
		}
		s := New()
		s.EnsureVars(nVars)
		for _, c := range clauses {
			s.AddClause(c...)
		}
		got := s.Solve(assume...)
		// Brute force with assumptions added as unit clauses.
		all := append([][]cnf.Lit{}, clauses...)
		for _, a := range assume {
			all = append(all, []cnf.Lit{a})
		}
		want := bruteForceSat(nVars, all)
		if (got == Sat) != want {
			return false
		}
		if got == Unsat {
			// Core soundness: clauses + core assumptions must be UNSAT,
			// and every core literal must be an assumption.
			core := s.Core()
			assumeSet := map[cnf.Lit]bool{}
			for _, a := range assume {
				assumeSet[a] = true
			}
			withCore := append([][]cnf.Lit{}, clauses...)
			for _, l := range core {
				if !assumeSet[l] {
					return false
				}
				withCore = append(withCore, []cnf.Lit{l})
			}
			if bruteForceSat(nVars, withCore) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIncrementalGrowth(t *testing.T) {
	// Add clauses between solves; results must track the growing formula.
	s := New()
	s.AddClause(1, 2)
	if s.Solve() != Sat {
		t.Fatal("phase 1")
	}
	s.AddClause(-1)
	if s.Solve() != Sat {
		t.Fatal("phase 2")
	}
	if !s.Model()[2] {
		t.Error("x2 must hold after x1 excluded")
	}
	s.AddClause(-2)
	if s.Solve() != Unsat {
		t.Fatal("phase 3 should be UNSAT")
	}
}

func TestManySolves(t *testing.T) {
	// Exercise clause-DB reduction and restarts across many solves.
	s := New()
	n := 40
	for i := 1; i < n; i++ {
		s.AddClause(cnf.Lit(-i), cnf.Lit(i+1))
	}
	for i := 0; i < 50; i++ {
		st := s.Solve(cnf.Lit(1))
		if st != Sat {
			t.Fatalf("solve %d: %v", i, st)
		}
		if !s.Model()[n] {
			t.Fatal("chain propagation broken")
		}
	}
}

func TestAddClauseDuringSearchPanics(t *testing.T) {
	// AddClause at a non-zero decision level is a programming error.
	// (We cannot easily trigger it from outside; assert the guard exists
	// by checking normal use does not panic.)
	s := New()
	s.AddClause(1)
	s.Solve()
	s.AddClause(2) // after Solve, level is 0 again: fine
	if s.Solve() != Sat {
		t.Fatal("post-solve AddClause failed")
	}
}

func TestHeapOrdering(t *testing.T) {
	var h varHeap
	act := []float64{1, 5, 3, 4, 2}
	for v := range act {
		h.insert(v, act)
	}
	var got []int
	for {
		v, ok := h.removeMin(act)
		if !ok {
			break
		}
		got = append(got, v)
	}
	want := []int{1, 3, 2, 4, 0} // by descending activity
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("heap order = %v, want %v", got, want)
	}
}

func TestHeapDecrease(t *testing.T) {
	var h varHeap
	act := []float64{1, 2, 3}
	for v := range act {
		h.insert(v, act)
	}
	act[0] = 10
	h.decrease(0, act)
	v, _ := h.removeMin(act)
	if v != 0 {
		t.Errorf("after bump, top = %d, want 0", v)
	}
	if h.inHeap(0) {
		t.Error("removed var still in heap")
	}
	h.insert(0, act)
	if !h.inHeap(0) {
		t.Error("re-insert failed")
	}
}

// TestMaxLearntsScalesWithClauses: the learnt cap floors at 8000 and
// grows to clauses/3 for large instances.
func TestMaxLearntsScalesWithClauses(t *testing.T) {
	small := New()
	small.AddClause(1, 2)
	small.Solve()
	if small.maxLearnts != 8000 {
		t.Fatalf("small instance maxLearnts = %v, want 8000", small.maxLearnts)
	}
	big := New()
	big.EnsureVars(200)
	n := 0
	for i := 1; i <= 198 && n < 30000; i++ {
		for j := i + 1; j <= 199 && n < 30000; j++ {
			big.AddClause(cnf.Lit(i), cnf.Lit(j), cnf.Lit(200))
			n++
		}
	}
	big.Solve()
	if want := float64(n) / 3; big.maxLearnts < want {
		t.Fatalf("big instance maxLearnts = %v, want >= %v", big.maxLearnts, want)
	}
}
