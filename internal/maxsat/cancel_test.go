package maxsat

import (
	"context"
	"errors"
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
	_, err := SolveContext(ctx, hardPigeonhole(5), Options{})
	if err == nil {
		t.Fatal("pre-canceled context should error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v should wrap context.Canceled", err)
	}
}

func TestCancelMidSolve(t *testing.T) {
	// PHP(11, 10) needs far more conflicts to refute than the interrupt
	// latency allows, so canceling at the first conflict (via the
	// progress callback, which fires synchronously from inside the CDCL
	// loop) stops the solver mid-search.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{
		ProgressEvery: 1,
		Progress:      func(ProgressInfo) { cancel() },
	}
	start := time.Now()
	_, err := SolveContext(ctx, hardPigeonhole(10), opts)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("canceled solve should error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v should wrap context.Canceled", err)
	}
	if elapsed > 30*time.Second {
		t.Errorf("cancellation took %v to take effect", elapsed)
	}
}

func TestBudgetErrorIsTyped(t *testing.T) {
	// Conflict-budget exhaustion must match ErrBudget — and must not be
	// conflated with a context cancellation.
	_, err := Solve(hardPigeonhole(8), Options{ConflictBudget: 3})
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
