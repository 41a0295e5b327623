// Package maxsat solves Weighted Partial MaxSAT instances (cnf.Formula):
// find an assignment satisfying all hard clauses that maximizes the total
// weight of satisfied soft clauses.
//
// The built-in solver is core-guided search (OLL/RC2 family, on the
// assumption interface of internal/sat, with totalizer encodings of
// discovered cores, stratification and hardening). The paper runs the
// MaxHS solver instead; its reductions use the solver as a black box,
// so any exact solver yields the same optima. A non-empty
// Options.SolverPath replaces the built-in solver with an external
// MaxSAT binary (e.g. MaxHS itself): the formula is written as DIMACS
// WCNF and the standard o/s/v output is parsed back.
//
// The built-in solver is cross-checked against brute force in tests.
package maxsat

import (
	"context"
	"errors"
	"fmt"

	"aggcavsat/internal/cnf"
	"aggcavsat/internal/obsv"
	"aggcavsat/internal/sat"
)

// ErrBudget is the sentinel wrapped by the error the built-in solver
// returns when Options.ConflictBudget runs out. Callers distinguish it
// from a cancellation with errors.Is: a cancelled or expired context
// surfaces as an error wrapping context.Canceled /
// context.DeadlineExceeded instead, never as ErrBudget.
var ErrBudget = errors.New("maxsat: solver budget exhausted")

// interrupted returns the context's error wrapped for maxsat callers, or
// nil if ctx is still live. The solver consults it between SAT calls
// and whenever a SAT call returns Unknown, so a cancellation is
// classified as such even though the underlying solver reports the same
// Unknown status for budget exhaustion and cooperative interruption.
func interrupted(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("maxsat: solve interrupted: %w", err)
	}
	return nil
}

// stopped classifies a SAT call's Unknown status: an interruption when
// ctx is done, the exhausted conflict budget otherwise.
func stopped(ctx context.Context) error {
	if err := interrupted(ctx); err != nil {
		return err
	}
	return fmt.Errorf("%w: conflicts (rc2)", ErrBudget)
}

// statsOf packages the solver's call/conflict counters into a Result so
// error paths still report the work performed (the bench harness records
// these even for timed-out runs).
func statsOf(s *sat.Solver) Result {
	return Result{SATCalls: s.Stats.Solves, Conflicts: s.Stats.Conflicts}
}

// Algorithm names a solving strategy in reports (progress, spans,
// explain rows); it is never an input.
type Algorithm int

const (
	// AlgRC2 is the built-in core-guided solver (OLL/RC2 family).
	AlgRC2 Algorithm = iota
	// AlgExternal is the binary at Options.SolverPath.
	AlgExternal
)

func (a Algorithm) String() string {
	switch a {
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
	// binary instead of the built-in RC2 solver.
	SolverPath string
	// ConflictBudget bounds the total SAT conflicts of one built-in
	// solve, summed over all its SAT calls; 0 means unlimited.
	ConflictBudget int64
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
}

// Algorithm names the strategy that answers: AlgExternal when a solver
// path is set, AlgRC2 otherwise.
func (o Options) Algorithm() Algorithm {
	if o.SolverPath != "" {
		return AlgExternal
	}
	return AlgRC2
}

// Solve computes the WPMaxSAT optimum of f.
func Solve(f *cnf.Formula, opts Options) (Result, error) {
	return SolveContext(context.Background(), f, opts)
}

// SolveContext is Solve with a context carrying an optional obsv.Tracer:
// each SAT call becomes a "sat.solve" span under the caller's current
// span, and the whole solve is wrapped in a "maxsat.solve" span, which
// ends carrying the built-in solver's last lb/ub bracket, on error exits
// too (a timed-out solve's bracket says how close it came). It is
// the one solve path: the built-in solver and an external binary both
// consume f as it stands, and the lub direction of the reductions is
// this same call on f.NegateSoft().
func SolveContext(ctx context.Context, f *cnf.Formula, opts Options) (Result, error) {
	ctx, sp := obsv.StartSpan(ctx, "maxsat.solve")
	var res Result
	var err error
	if opts.SolverPath != "" {
		res, err = solveExternal(ctx, f, opts)
	} else {
		tr := newTracker(opts, sp)
		res, err = solveRC2(ctx, f, opts, tr)
		tr.stamp(sp)
	}
	if sp != nil {
		sp.SetStr("alg", opts.Algorithm().String())
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
