package maxsat

import (
	"testing"

	"aggcavsat/internal/cnf"
)

// TestWideWeightsAgainstBruteForce is a regression test for the
// incumbent-model bug in RC2's hardening: random instances with weights
// up to 1000 exercise stratification and hardening much harder than
// small weights do.
func TestWideWeightsAgainstBruteForce(t *testing.T) {
	fails := 0
	for seed := uint64(1); seed <= 400; seed++ {
		rng := seed | 1
		next := func(n int) int {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return int(rng % uint64(n))
		}
		nVars := 3 + next(5)
		f := cnf.New(nVars)
		nHard := next(7)
		for i := 0; i < nHard; i++ {
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
			f.AddHard(lits...)
		}
		nSoft := 2 + next(8)
		for i := 0; i < nSoft; i++ {
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
			f.AddSoft(int64(1+next(1000)), lits...) // wide weights
		}
		want, wantOK := bruteForceOptimum(f)
		res, err := Solve(f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Satisfiable != wantOK || (wantOK && res.Optimum != want) {
			fails++
			if fails <= 3 {
				t.Errorf("seed %d: got %d (sat=%v), want %d (sat=%v)", seed, res.Optimum, res.Satisfiable, want, wantOK)
			}
		}
	}
	if fails > 0 {
		t.Errorf("total failures: %d/400", fails)
	}
}
