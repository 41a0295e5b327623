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
		res.Algorithm = AlgExternal
	} else {
		tr := newTracker(opts, sp)
		res, err = solveProblem(ctx, formulaProblem(f), opts, tr)
		tr.stamp(sp)
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

// solveProblem runs MaxHS on a prepared problem, degrading to RC2 when
// an exact hitting-set search blows its node budget, and names the
// strategy that answered in Result.Algorithm.
func solveProblem(ctx context.Context, p *problem, opts Options, tr *tracker) (Result, error) {
	res, err := solveMaxHS(ctx, p, opts, tr)
	res.Algorithm = AlgMaxHS
	if !errors.Is(err, errHSBudget) || opts.ConflictBudget > 0 {
		// Only a blown hitting-set budget falls back, and not when the
		// caller set explicit budgets (benchmark timeouts): then the
		// budget error surfaces instead of grinding through RC2.
		return res, err
	}
	// A pathological hitting-set cluster: degrade gracefully to
	// core-guided search, which has no comparable blow-up mode. Its
	// solver is rebuilt from the formula. The failed MaxHS attempt's SAT
	// calls and conflicts still happened: fold them into whatever the
	// fallback reports.
	rres, rerr := solveRC2(ctx, p, opts, tr)
	rres.Algorithm = AlgRC2
	rres.SATCalls += res.SATCalls
	rres.Conflicts += res.Conflicts
	return rres, rerr
}

// problem is a WPMaxSAT formula prepared for the built-in algorithms.
// The algorithms see its selector weights and scoring function and
// never touch the formula's clauses themselves.
type problem struct {
	f *cnf.Formula
	// fork returns a solver loaded with the hard clauses and the
	// selector plumbing. Every call yields an independent solver the
	// algorithm may mutate freely.
	fork func() *sat.Solver
	// weights maps each selector literal to its accumulated weight.
	// Shared across runs — treat as immutable. Algorithms that consume
	// weights destructively (RC2) must work on weightsCopy().
	weights map[cnf.Lit]int64
	// total is the formula's total soft weight.
	total int64
}

// formulaProblem prepares f: each fork rebuilds the solver from the
// formula. The first build runs eagerly so the selector weights are
// known up front and is then served to the first fork; selector
// variables are allocated deterministically (in clause order, from
// f.NumVars()+1), so later rebuilds reproduce the identical weights
// map.
func formulaProblem(f *cnf.Formula) *problem {
	build := func() *sat.Solver {
		s := sat.New()
		s.AddFormulaHard(f)
		s.EnsureVars(f.NumVars())
		return s
	}
	first := build()
	p := &problem{f: f, weights: selectors(first, f), total: f.TotalSoftWeight()}
	p.fork = func() *sat.Solver {
		if first != nil {
			s := first
			first = nil
			return s
		}
		s := build()
		selectors(s, f)
		return s
	}
	return p
}

// weightsCopy returns a private copy of the selector weights for
// algorithms that mutate them.
func (p *problem) weightsCopy() map[cnf.Lit]int64 {
	out := make(map[cnf.Lit]int64, len(p.weights))
	for l, w := range p.weights {
		out[l] = w
	}
	return out
}

// score returns the satisfied soft weight of the formula under a
// (possibly wider) model of the hard clauses; it panics when the model
// violates a hard clause of the formula.
func (p *problem) score(model []bool) int64 {
	w, err := evalModel(p.f, model)
	if err != nil {
		panic("maxsat: optimal model violates a hard clause")
	}
	return w
}

// trim copies a model down to the formula's variables.
func (p *problem) trim(model []bool) []bool {
	n := p.f.NumVars() + 1
	out := make([]bool, n)
	copy(out, model[:min(len(model), n)])
	return out
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
