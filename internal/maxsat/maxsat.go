// Package maxsat solves Weighted Partial MaxSAT instances (cnf.Formula):
// find an assignment satisfying all hard clauses that maximizes the total
// weight of satisfied soft clauses.
//
// The built-in solver is implicit-hitting-set search in the style of
// the MaxHS solver the paper runs: SAT cores accumulate and an exact
// minimum-weight hitting set of them drives the next SAT call; weights
// are never split. When one exact hitting-set search exhausts its node
// budget, the solve degrades to core-guided search (OLL/RC2 family, on
// the assumption interface of internal/sat, with totalizer encodings
// of discovered cores, stratification and hardening). A non-empty
// Options.SolverPath replaces both with an external MaxSAT binary (e.g.
// MaxHS itself): the formula is written as DIMACS WCNF and the standard
// o/s/v output is parsed back.
//
// MaxHS and RC2 are each cross-checked against brute force in tests.
package maxsat

import (
	"context"
	"errors"
	"fmt"

	"aggcavsat/internal/cnf"
	"aggcavsat/internal/obsv"
	"aggcavsat/internal/sat"
)

// ErrBudget is the sentinel wrapped by every budget-exhaustion error the
// built-in algorithms return (SAT conflict budgets and the MaxHS exact
// hitting-set node budget alike). Callers distinguish it from a
// cancellation with errors.Is: a cancelled or expired context surfaces
// as an error wrapping context.Canceled / context.DeadlineExceeded
// instead, never as ErrBudget.
var ErrBudget = errors.New("maxsat: solver budget exhausted")

// interrupted returns the context's error wrapped for maxsat callers, or
// nil if ctx is still live. The algorithms consult it between SAT calls
// and whenever a SAT call returns Unknown, so a cancellation is
// classified as such even though the underlying solver reports the same
// Unknown status for budget exhaustion and cooperative interruption.
func interrupted(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("maxsat: solve interrupted: %w", err)
	}
	return nil
}

// statsOf packages the solver's call/conflict counters into a Result so
// error paths still report the work performed (the bench harness records
// these even for timed-out runs).
func statsOf(s *sat.Solver) Result {
	return Result{SATCalls: s.Stats.Solves, Conflicts: s.Stats.Conflicts}
}

// Algorithm names a solving strategy in reports (Result, progress,
// spans); it is never an input.
type Algorithm int

const (
	// AlgMaxHS is implicit-hitting-set MaxSAT in the style of the MaxHS
	// solver the paper deploys. Its weights are never split, which makes
	// it robust on SUM instances with price-like weights.
	AlgMaxHS Algorithm = iota
	// AlgRC2 is core-guided MaxSAT (OLL/RC2 family), run when a MaxHS
	// hitting-set search exhausts its node budget.
	AlgRC2
	// AlgExternal is the binary at Options.SolverPath.
	AlgExternal
)

func (a Algorithm) String() string {
	switch a {
	case AlgMaxHS:
		return "maxhs"
	case AlgRC2:
		return "rc2"
	case AlgExternal:
		return "external"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Options configures Solve.
type Options struct {
	// SolverPath, when non-empty, selects an external MaxSAT solver
	// binary instead of the built-in MaxHS.
	SolverPath string
	// SolverArgs are extra arguments placed before the WCNF path.
	SolverArgs []string
	// ConflictBudget bounds total SAT conflicts (built-in algorithms);
	// 0 means unlimited.
	ConflictBudget int64
	// HSNodeBudget bounds one exact hitting-set search in MaxHS before
	// it degrades to the RC2 fallback; 0 means the built-in
	// default (hsNodeBudget).
	HSNodeBudget int64
	// Progress, when non-nil, receives periodic and milestone progress
	// reports during the solve (see ProgressInfo).
	Progress ProgressFunc
	// ProgressEvery is the conflict interval between periodic "search"
	// reports; 0 means DefaultProgressEvery.
	ProgressEvery int64
}

// Result reports the outcome of a MaxSAT solve.
type Result struct {
	// Satisfiable is false when the hard clauses alone are inconsistent.
	Satisfiable bool
	// Optimum is the maximum achievable total weight of satisfied soft
	// clauses (0 if Satisfiable is false).
	Optimum int64
	// FalsifiedWeight = total soft weight − Optimum.
	FalsifiedWeight int64
	// Model is an optimal assignment indexed by 1-based variable of the
	// input formula (index 0 unused); nil if Satisfiable is false.
	Model []bool
	// SATCalls is the number of SAT-solver invocations used.
	SATCalls int64
	// Conflicts is the total number of CDCL conflicts.
	Conflicts int64
	// Algorithm is the strategy that produced the answer: AlgRC2 when
	// MaxHS fell back to it, AlgExternal for an external binary.
	Algorithm Algorithm
}

// Algorithm names the configured strategy: AlgExternal when a solver
// path is set, AlgMaxHS otherwise. Result.Algorithm says which one
// actually answered.
func (o Options) Algorithm() Algorithm {
	if o.SolverPath != "" {
		return AlgExternal
	}
	return AlgMaxHS
}

// Solve computes the WPMaxSAT optimum of f.
func Solve(f *cnf.Formula, opts Options) (Result, error) {
	return SolveContext(context.Background(), f, opts)
}

// SolveContext is Solve with a context carrying an optional obsv.Tracer:
// each SAT call becomes a "sat.solve" span under the caller's current
// span, and the whole solve is wrapped in a "maxsat.solve" span.
func SolveContext(ctx context.Context, f *cnf.Formula, opts Options) (Result, error) {
	ctx, sp := obsv.StartSpan(ctx, "maxsat.solve")
	var res Result
	var err error
	if opts.SolverPath != "" {
		res, err = solveExternal(ctx, f, opts)
		res.Algorithm = AlgExternal
	} else {
		// One-shot path: each run rebuilds its solver from the formula.
		// Incremental callers use NewInstance instead and share one
		// hard-clause base.
		res, err = solveProblem(ctx, formulaProblem(f), opts)
	}
	if sp != nil {
		sp.SetStr("alg", res.Algorithm.String())
		sp.SetInt("sat_calls", res.SATCalls)
		sp.SetInt("conflicts", res.Conflicts)
		if err == nil && res.Satisfiable {
			sp.SetInt("optimum", res.Optimum)
		}
		sp.End()
	}
	return res, err
}

// selectors sets up the standard soft-clause relaxation on a solver:
// every soft clause gets a selector literal that is true iff the solver
// "commits" to satisfying the clause. Unit soft clauses use their own
// literal; larger clauses get a fresh relaxation variable r and the hard
// clause (C ∨ r), with selector ¬r. Weights of identical selectors merge.
//
// The returned map is selector → accumulated weight.
func selectors(s *sat.Solver, f *cnf.Formula) map[cnf.Lit]int64 {
	weights := make(map[cnf.Lit]int64)
	for _, c := range f.Clauses() {
		if c.Hard() {
			continue
		}
		var sel cnf.Lit
		if len(c.Lits) == 1 {
			sel = c.Lits[0]
		} else {
			r := cnf.Lit(s.NewVar())
			lits := make([]cnf.Lit, 0, len(c.Lits)+1)
			lits = append(lits, c.Lits...)
			lits = append(lits, r)
			s.AddClause(lits...)
			sel = r.Neg()
		}
		weights[sel] += c.Weight
	}
	return weights
}

// evalModel evaluates the original formula under a (possibly larger)
// model and returns the satisfied soft weight, or an error if the model
// falsifies a hard clause of the original formula.
func evalModel(f *cnf.Formula, model []bool) (int64, error) {
	trimmed := model
	if len(trimmed) > f.NumVars()+1 {
		trimmed = trimmed[:f.NumVars()+1]
	}
	hardOK, satW, _ := f.Eval(trimmed)
	if !hardOK {
		return 0, errors.New("maxsat: model violates a hard clause")
	}
	return satW, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
