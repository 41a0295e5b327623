package maxsat

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"aggcavsat/internal/cnf"
)

// readFixture parses one WCNF fixture of testdata (see its README).
func readFixture(t testing.TB, name string) *cnf.Formula {
	t.Helper()
	fh, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	f, err := cnf.ReadWCNF(fh)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return f
}

// TestHardFixtures solves the committed hard components, whose soft
// weights are prices: both directions of the PDBench-4 Q5′ component
// and the glb direction of the DBGen Q10′ one (its lub direction is
// unsolved; see TestFixtureConflictBudget). The falsified weights equal
// group elimination's (internal/core TestHardCases). Each solve must
// stay within twice the SAT calls it takes today — a deterministic work
// counter, so a solver regression on price weights fails here.
func TestHardFixtures(t *testing.T) {
	for _, tc := range []struct {
		name          string
		vars, clauses int
		minF, maxF    int64
		solveLUB      bool
		// glbCalls and lubCalls are today's SAT calls per direction.
		glbCalls, lubCalls int64
	}{
		{"dbgen-sf0.01-q10p.wcnf", 727, 1786, 263358665, 815972972, false, 118, 0},
		{"pdbench4-sf0.01-q5p.wcnf", 1971, 21171, 0, 511094426, true, 1, 281},
	} {
		f := readFixture(t, tc.name)
		if st := f.Stats(); st.Vars != tc.vars || st.Clauses != tc.clauses {
			t.Fatalf("%s: %d vars / %d clauses, want %d / %d", tc.name, st.Vars, st.Clauses, tc.vars, tc.clauses)
		}
		total := f.TotalSoftWeight()
		res, err := SolveContext(context.Background(), f, Options{})
		if err != nil {
			t.Fatalf("%s glb: %v", tc.name, err)
		}
		if got := total - res.Optimum; got != tc.minF {
			t.Errorf("%s glb: falsified %d, want %d", tc.name, got, tc.minF)
		}
		if res.SATCalls > 2*tc.glbCalls {
			t.Errorf("%s glb: %d SAT calls, want at most 2 × %d", tc.name, res.SATCalls, tc.glbCalls)
		}
		if !tc.solveLUB {
			continue
		}
		if res, err = SolveContext(context.Background(), f.NegateSoft(), Options{}); err != nil {
			t.Fatalf("%s lub: %v", tc.name, err)
		}
		if res.Optimum != tc.maxF {
			t.Errorf("%s lub: falsified %d, want %d", tc.name, res.Optimum, tc.maxF)
		}
		if res.SATCalls > 2*tc.lubCalls {
			t.Errorf("%s lub: %d SAT calls, want at most 2 × %d", tc.name, res.SATCalls, tc.lubCalls)
		}
	}
}

// TestFixtureConflictBudget pins Options.ConflictBudget as a bound on
// the whole solve: Q10′'s lub direction, which the built-in solver
// does not finish, makes many SAT calls of a few conflicts each, and a
// budget of 200 conflicts must stop it with ErrBudget long before the
// 20 s guard.
func TestFixtureConflictBudget(t *testing.T) {
	f := readFixture(t, "dbgen-sf0.01-q10p.wcnf")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	res, err := SolveContext(ctx, f.NegateSoft(), Options{ConflictBudget: 200})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("budgeted solve returned %v, want ErrBudget", err)
	}
	if res.Conflicts < 200 {
		t.Errorf("budget stop after %d conflicts, want at least 200", res.Conflicts)
	}
}

// BenchmarkHardFixtures times the solves TestHardFixtures pins — the
// glb direction of each fixture and the lub direction of PDBench-4 Q5′
// — and reports their SAT calls, so a solver regression on price
// weights shows in benchmark logs.
func BenchmarkHardFixtures(b *testing.B) {
	q10 := readFixture(b, "dbgen-sf0.01-q10p.wcnf")
	q5 := readFixture(b, "pdbench4-sf0.01-q5p.wcnf")
	for _, bc := range []struct {
		name string
		f    *cnf.Formula
	}{{"q10p-glb", q10}, {"q5p-glb", q5}, {"q5p-lub", q5.NegateSoft()}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var calls int64
			for i := 0; i < b.N; i++ {
				res, err := Solve(bc.f, Options{})
				if err != nil {
					b.Fatal(err)
				}
				calls = res.SATCalls
			}
			b.ReportMetric(float64(calls), "satcalls/op")
		})
	}
}
