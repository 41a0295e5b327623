package core

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"testing"

	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
	"aggcavsat/internal/exhaustive"
	"aggcavsat/internal/maxsat"
)

// TestSolvePathMatchesExhaustive pins the one solve path — every MaxSAT
// run solves a component's Reduction IV.1 formula, or for the lub
// direction its NegateSoft copy, through maxsat.SolveContext — to
// brute-force repair enumeration (internal/exhaustive) on random
// inconsistent instances, for every operator, scalar and grouped, with
// a sequential and a parallel worker pool. The legs are the built-in
// RC2 solver and the external-solver interface driving cmd/wcnfsolve
// (skipped when the binary cannot be built). Every leg must also report
// the same ranges and the same Stats.Vars/Clauses as the sequential
// built-in run. Group elimination is off, so the COUNT/SUM components
// take the solver path too.
func TestSolvePathMatchesExhaustive(t *testing.T) {
	ops := []cq.AggOp{cq.CountStar, cq.Count, cq.Sum, cq.CountDistinct, cq.SumDistinct, cq.Min, cq.Max}
	trials := 25
	if testing.Short() {
		trials = 6
	}
	type trial struct {
		in   *db.Instance
		want map[string][]exhaustive.GroupRange
	}
	trialsIn := make([]trial, trials)
	for i := range trialsIn {
		seed := i + 1
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
		trialsIn[i] = trial{in, want}
	}

	ref := map[string]*Report{} // the sequential built-in report of each case
	for _, leg := range []string{"rc2", "external"} {
		t.Run(leg, func(t *testing.T) {
			var opts maxsat.Options
			if leg == "external" {
				opts.SolverPath = buildWCNFSolve(t)
			}
			runs := 0
			for i, tr := range trialsIn {
				for _, par := range []int{1, 4} {
					eng, err := New(tr.in, Options{Mode: KeysMode, Parallelism: par, MaxSAT: opts})
					if err != nil {
						t.Fatal(err)
					}
					noElimination(eng)
					for _, op := range ops {
						for _, grouped := range []bool{false, true} {
							label := fmt.Sprintf("seed %d %s par %d op %v grouped %v", i+1, leg, par, op, grouped)
							got, err := eng.RangeAnswers(joinQuery(op, grouped))
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							compareReports(t, label, got, tr.want[fmt.Sprint(op, grouped)])
							runs += got.Stats.MaxSATRuns
							key := fmt.Sprint(i, op, grouped)
							want, ok := ref[key]
							if !ok {
								ref[key] = got
								continue
							}
							for a := range got.Answers {
								g, w := got.Answers[a].Range, want.Answers[a].Range
								if !valuesMatch(g.GLB, w.GLB) || !valuesMatch(g.LUB, w.LUB) {
									t.Fatalf("%s: answer %d range [%v, %v], sequential built-in [%v, %v]", label, a, g.GLB, g.LUB, w.GLB, w.LUB)
								}
							}
							if got.Stats.Vars != want.Stats.Vars || got.Stats.Clauses != want.Stats.Clauses {
								t.Fatalf("%s: CNF %d vars / %d clauses, sequential built-in %d / %d",
									label, got.Stats.Vars, got.Stats.Clauses, want.Stats.Vars, want.Stats.Clauses)
							}
						}
					}
				}
			}
			if runs == 0 {
				t.Fatal("no MaxSAT run")
			}
		})
	}
}

// buildWCNFSolve builds cmd/wcnfsolve into the test's temporary
// directory and returns its path; it skips the test when the build
// fails.
func buildWCNFSolve(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "wcnfsolve")
	if out, err := exec.Command("go", "build", "-o", bin, "aggcavsat/cmd/wcnfsolve").CombinedOutput(); err != nil {
		t.Skipf("cannot build wcnfsolve: %v (%s)", err, out)
	}
	return bin
}

// TestIncrementalConsistentAnswersMatch covers the Algorithm-2 path: the
// candidate consistency checks share one incremental SAT solver per
// shard and must accept exactly the answers repair enumeration does,
// sequentially and in parallel.
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
