package maxsat

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"aggcavsat/internal/cnf"
)

// hardPigeonhole builds PHP(holes+1, holes) as hard clauses plus one
// soft unit, the stock "takes forever to refute" instance for
// cancellation tests.
func hardPigeonhole(holes int) *cnf.Formula {
	f := cnf.New(0)
	v := func(p, h int) cnf.Lit { return cnf.Lit(p*holes + h + 1) }
	for p := 0; p < holes+1; p++ {
		lits := make([]cnf.Lit, holes)
		for h := 0; h < holes; h++ {
			lits[h] = v(p, h)
		}
		f.AddHard(lits...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < holes+1; p1++ {
			for p2 := p1 + 1; p2 < holes+1; p2++ {
				f.AddHard(-v(p1, h), -v(p2, h))
			}
		}
	}
	f.AddSoft(1, 1)
	return f
}

func TestPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range algorithms() {
		_, err := solveWith(ctx, alg, hardPigeonhole(5), Options{})
		if err == nil {
			t.Errorf("%v: pre-canceled context should error", alg)
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: error %v should wrap context.Canceled", alg, err)
		}
	}
}

func TestCancelMidSolve(t *testing.T) {
	// PHP(11, 10) needs far more conflicts to refute than the interrupt
	// latency allows, so canceling at the first conflict (via the
	// progress callback, which fires synchronously from inside the CDCL
	// loop) stops every algorithm mid-search.
	for _, alg := range algorithms() {
		ctx, cancel := context.WithCancel(context.Background())
		opts := Options{
			ProgressEvery: 1,
			Progress:      func(ProgressInfo) { cancel() },
		}
		start := time.Now()
		_, err := solveWith(ctx, alg, hardPigeonhole(10), opts)
		elapsed := time.Since(start)
		cancel()
		if err == nil {
			t.Errorf("%v: canceled solve should error", alg)
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: error %v should wrap context.Canceled", alg, err)
		}
		if elapsed > 30*time.Second {
			t.Errorf("%v: cancellation took %v to take effect", alg, elapsed)
		}
	}
}

func TestBudgetErrorIsTyped(t *testing.T) {
	// Conflict-budget exhaustion must match ErrBudget — and must not be
	// conflated with a context cancellation.
	_, err := solveWith(context.Background(), rc2Alone, hardPigeonhole(8), Options{ConflictBudget: 3})
	if err == nil {
		t.Fatal("budget exhaustion should error")
	}
	if !errors.Is(err, ErrBudget) {
		t.Errorf("error %v should wrap ErrBudget", err)
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("budget error %v must not look like a cancellation", err)
	}
}

func TestMaxHSFallbackAccumulatesStats(t *testing.T) {
	// Three pairwise-conflicting softs force at least one core and a
	// hitting-set search; HSNodeBudget=1 aborts that search immediately,
	// so MaxHS degrades to the RC2 fallback. The result must still be
	// the true optimum, name RC2 as the strategy that produced it, and
	// its stats must cover BOTH attempts: strictly more SAT calls than
	// RC2 alone on the same formula.
	f := cnf.New(3)
	f.AddHard(-1, -2)
	f.AddHard(-2, -3)
	f.AddHard(-1, -3)
	f.AddSoft(3, 1)
	f.AddSoft(5, 2)
	f.AddSoft(4, 3)

	rc2, err := solveWith(context.Background(), rc2Alone, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(f, Options{HSNodeBudget: 1})
	if err != nil {
		t.Fatalf("fallback should succeed, got %v", err)
	}
	if !res.Satisfiable || res.Optimum != 5 || res.FalsifiedWeight != 7 {
		t.Errorf("fallback result %+v, want optimum 5 / falsified 7", res)
	}
	if res.Algorithm != AlgRC2 {
		t.Errorf("fallback answered by %v, want rc2", res.Algorithm)
	}
	if res.SATCalls <= rc2.SATCalls {
		t.Errorf("fallback SATCalls = %d, want > RC2-alone %d (MaxHS attempt must be counted)",
			res.SATCalls, rc2.SATCalls)
	}
}

func TestMaxHSBudgetWithConflictBudgetErrors(t *testing.T) {
	// With an explicit conflict budget the caller asked for bounded
	// work: the hitting-set budget must surface as ErrBudget instead of
	// silently restarting with RC2.
	f := cnf.New(3)
	f.AddHard(-1, -2)
	f.AddHard(-2, -3)
	f.AddHard(-1, -3)
	f.AddSoft(3, 1)
	f.AddSoft(5, 2)
	f.AddSoft(4, 3)
	_, err := Solve(f, Options{HSNodeBudget: 1, ConflictBudget: 1 << 40})
	if err == nil {
		t.Fatal("hitting-set budget with ConflictBudget set should error")
	}
	if !errors.Is(err, ErrBudget) {
		t.Errorf("error %v should wrap ErrBudget", err)
	}
}

func TestExternalHangingSolverKilled(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("shell-script fake solver")
	}
	dir := t.TempDir()
	script := filepath.Join(dir, "hang.sh")
	if err := os.WriteFile(script, []byte("#!/bin/sh\nexec sleep 60\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	f := cnf.New(1)
	f.AddSoft(1, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := SolveContext(ctx, f, Options{SolverPath: script})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("hanging external solver should error once the context expires")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v should wrap context.DeadlineExceeded", err)
	}
	if elapsed > 30*time.Second {
		t.Errorf("external solver outlived the deadline by %v", elapsed)
	}
}

func TestExternalInvalidModelError(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("shell-script fake solver")
	}
	dir := t.TempDir()
	script := filepath.Join(dir, "liar.sh")
	// Claims an optimum whose model violates the hard clause ¬x1: this
	// must surface as an error, not a panic.
	body := "#!/bin/sh\necho 's OPTIMUM FOUND'\necho 'o 0'\necho 'v 1 0'\n"
	if err := os.WriteFile(script, []byte(body), 0o755); err != nil {
		t.Fatal(err)
	}
	f := cnf.New(1)
	f.AddHard(-1)
	f.AddSoft(2, 1)
	_, err := Solve(f, Options{SolverPath: script})
	if err == nil {
		t.Fatal("invalid external model should error")
	}
}

// overlappingCores builds a hitting-set instance the exact branch and
// bound cannot finish quickly: 300 random cores of 3–5 selectors over
// 80 selectors with distinct price-like weights, so clusters merge into
// one and the packing bound prunes little (well over 10⁵ nodes). The
// generator is seeded, so the instance is fixed.
func overlappingCores() ([][]cnf.Lit, map[cnf.Lit]int64) {
	const nSel, nCores = 80, 300
	rng := rand.New(rand.NewSource(1))
	weights := make(map[cnf.Lit]int64, nSel)
	for v := 1; v <= nSel; v++ {
		weights[cnf.Lit(v)] = int64(1000 + rng.Intn(9000))
	}
	cores := make([][]cnf.Lit, 0, nCores)
	for len(cores) < nCores {
		k := 3 + rng.Intn(3)
		seen := map[int]bool{}
		var core []cnf.Lit
		for len(core) < k {
			if v := 1 + rng.Intn(nSel); !seen[v] {
				seen[v] = true
				core = append(core, cnf.Lit(v))
			}
		}
		cores = append(cores, core)
	}
	return cores, weights
}

// TestHittingSetSearchPollsContext pins the exact hitting-set search's
// cancellation: it checks its context every hsPollEvery nodes and
// reports a dead context as an interruption — never as errHSBudget,
// which would start the RC2 fallback instead of stopping.
func TestHittingSetSearchPollsContext(t *testing.T) {
	cores, weights := overlappingCores()
	// The instance is hard enough to matter: 10⁵ nodes do not finish it.
	if _, _, err := solveClusterHS(context.Background(), cores, weights, nil, 100_000); !errors.Is(err, errHSBudget) {
		t.Fatalf("search finished within 10⁵ nodes (err %v); the instance is too easy", err)
	}

	// A cancelled search stops at its first poll: with one node of budget
	// past the poll interval, the cancellation must be seen before the
	// budget runs out.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := solveClusterHS(ctx, cores, weights, nil, hsPollEvery+1)
	if !errors.Is(err, context.Canceled) || errors.Is(err, ErrBudget) {
		t.Fatalf("cancelled search returned %v, want a context.Canceled interruption", err)
	}

	// End to end: each core becomes a hard clause over unit softs, so
	// MaxHS finds the cores by SAT and then grinds in the exact search.
	// A 50 ms deadline must stop the solve promptly and surface as a
	// deadline, not as a budget stop that would fall back to RC2.
	f := cnf.New(len(weights))
	for _, c := range cores {
		neg := make([]cnf.Lit, len(c))
		for i, l := range c {
			neg[i] = l.Neg()
		}
		f.AddHard(neg...)
	}
	for v := 1; v <= len(weights); v++ {
		f.AddSoft(weights[cnf.Lit(v)], cnf.Lit(v))
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer dcancel()
	start := time.Now()
	_, err = SolveContext(dctx, f, Options{})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrBudget) {
		t.Fatalf("deadline-bound solve returned %v, want a context.DeadlineExceeded interruption", err)
	}
	if elapsed > 150*time.Millisecond {
		t.Errorf("solve returned %v after a 50 ms deadline, want < 150 ms", elapsed)
	}
}
