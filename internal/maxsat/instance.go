package maxsat

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"aggcavsat/internal/cnf"
	"aggcavsat/internal/obsv"
	"aggcavsat/internal/sat"
)

// problem is one optimization direction of a WPMaxSAT instance prepared
// for the built-in algorithms. It decouples the algorithms from how the
// underlying solver is produced: the one-shot Solve path rebuilds a
// solver from the formula per run (formulaProblem), while the incremental path
// clones a shared hard-clause base (Instance). Either way the algorithm
// sees selector weights and a scoring function and never touches the
// formula itself.
type problem struct {
	// fork returns a solver loaded with the hard clauses and the
	// direction's selector plumbing. Every call yields an independent
	// solver the algorithm may mutate freely.
	fork func() *sat.Solver
	// adopt offers a solver back after a run, so a shared base can
	// collect its learnt clauses; nil when there is no base to maintain.
	adopt func(*sat.Solver)
	// weights maps each selector literal to its accumulated weight.
	// Shared across runs — treat as immutable. Algorithms that consume
	// weights destructively (RC2) must work on weightsCopy().
	weights map[cnf.Lit]int64
	// total is the direction's total soft weight.
	total int64
	// nVars is the original formula's variable count (model trim width).
	nVars int
	// score maps a model of the hard clauses to the direction's
	// objective (the weight reported as Result.Optimum); it panics when
	// the model violates a hard clause of the original formula.
	score func(model []bool) int64
}

// adoptSolver is the nil-safe adopt call sites use.
func (p *problem) adoptSolver(s *sat.Solver) {
	if p.adopt != nil {
		p.adopt(s)
	}
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

// trim copies a model down to the original formula's variables.
func (p *problem) trim(model []bool) []bool {
	n := p.nVars + 1
	out := make([]bool, n)
	copy(out, model[:min(len(model), n)])
	return out
}

// scoreFormula evaluates f under a (possibly wider) model and returns
// the satisfied soft weight, or the falsified soft weight when
// falsified is set — the scoring primitive for the two directions.
func scoreFormula(f *cnf.Formula, model []bool, falsified bool) int64 {
	trimmed := model
	if len(trimmed) > f.NumVars()+1 {
		trimmed = trimmed[:f.NumVars()+1]
	}
	hardOK, satW, falsW := f.Eval(trimmed)
	if !hardOK {
		panic("maxsat: optimal model violates a hard clause")
	}
	if falsified {
		return falsW
	}
	return satW
}

// formulaProblem prepares the one-shot one-solver-per-run path: each fork
// rebuilds the solver from the formula. The first build runs eagerly so
// the selector weights are known up front and is then served to the
// first fork; selector variables are allocated deterministically (in
// clause order, from f.NumVars()+1), so later rebuilds reproduce the
// identical weights map.
func formulaProblem(f *cnf.Formula) *problem {
	build := func() *sat.Solver {
		s := sat.New()
		s.AddFormulaHard(f)
		s.EnsureVars(f.NumVars())
		return s
	}
	first := build()
	p := &problem{
		weights: selectors(first, f),
		total:   f.TotalSoftWeight(),
		nVars:   f.NumVars(),
		score:   func(model []bool) int64 { return scoreFormula(f, model, false) },
	}
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

// solveProblem runs the selected built-in algorithm on a prepared
// problem, including the MaxHS→RC2 degradation when an exact
// hitting-set search blows its node budget. It is the common back end
// of SolveContext (via formulaProblem) and Instance.SolveMin/SolveMax.
func solveProblem(ctx context.Context, p *problem, opts Options) (Result, error) {
	switch opts.Algorithm {
	case AlgMaxHS:
		res, err := solveMaxHS(ctx, p, opts)
		if errors.Is(err, errHSBudget) {
			if opts.ConflictBudget > 0 {
				// The caller runs with explicit budgets (benchmark
				// timeouts): surface the budget error immediately
				// instead of grinding through the fallback.
				return res, err
			}
			// A pathological hitting-set cluster: degrade gracefully to
			// core-guided search, which has no comparable blow-up mode.
			// The fallback forks from the same problem, so under an
			// Instance it starts from the shared base — including any
			// learnt clauses the failed MaxHS attempt contributed. Its
			// SAT calls and conflicts still happened: fold them into
			// whatever the fallback reports.
			rres, rerr := solveRC2(ctx, p, opts)
			rres.SATCalls += res.SATCalls
			rres.Conflicts += res.Conflicts
			return rres, rerr
		}
		return res, err
	case AlgRC2:
		return solveRC2(ctx, p, opts)
	case AlgLSU:
		return solveLSU(ctx, p, opts)
	default:
		return Result{}, fmt.Errorf("maxsat: algorithm %v has no incremental problem back end", opts.Algorithm)
	}
}

// HardBase is a snapshot of a SAT solver loaded with a formula's
// hard-clause prefix. Building it costs one full clause load; every
// consumer afterwards starts from a cheap Solver.Clone instead of
// re-adding the clauses. A HardBase is safe to share across goroutines:
// the snapshot solver is never solved directly, only cloned (and
// occasionally swapped, under the mutex, for a learnt-enriched
// equivalent an Instance releases back — see Instance.Release).
type HardBase struct {
	mu       sync.Mutex
	solver   *sat.Solver
	nClauses int
	nVars    int
}

// clone takes a private copy of the current snapshot solver.
func (b *HardBase) clone() *sat.Solver {
	b.mu.Lock()
	s := b.solver.Clone()
	b.mu.Unlock()
	return s
}

// adopt swaps the snapshot for a solver that provably holds only
// consequences of the snapshot's own clauses: it was cloned from this
// base, added no clauses of its own, and was never interrupted. Its
// learnt clauses then benefit every later fork (the cross-query half of
// the incremental story). No-op otherwise.
func (b *HardBase) adopt(s *sat.Solver) {
	if s.AddedSinceClone() != 0 || s.Interrupted() {
		return
	}
	b.mu.Lock()
	b.solver = s
	b.mu.Unlock()
}

// NewHardBase loads every clause of f — which must all be hard — into a
// fresh solver and snapshots it together with f's current size, so
// forks know which clause suffix to replay.
func NewHardBase(f *cnf.Formula) *HardBase {
	s := sat.New()
	for _, c := range f.Clauses() {
		if !c.Hard() {
			panic("maxsat: NewHardBase on a formula with soft clauses")
		}
		if !s.AddClause(c.Lits...) {
			break // top-level conflict: clones will report it
		}
	}
	s.EnsureVars(f.NumVars())
	return &HardBase{solver: s, nClauses: f.NumClauses(), nVars: f.NumVars()}
}

// NumClauses returns the number of formula clauses the snapshot covers.
func (b *HardBase) NumClauses() int { return b.nClauses }

// Fork clones the snapshot solver and replays every clause f gained
// after the snapshot was taken; the extension clauses must be hard. f
// must extend the formula the base was built from.
func (b *HardBase) Fork(f *cnf.Formula) *sat.Solver {
	s := b.clone()
	for _, c := range f.Clauses()[b.nClauses:] {
		if !c.Hard() {
			panic("maxsat: HardBase.Fork across a soft clause; use NewInstance")
		}
		if !s.AddClause(c.Lits...) {
			break
		}
	}
	s.EnsureVars(f.NumVars())
	return s
}

// Instance prepares a WPMaxSAT formula for solving both optimization
// directions over ONE shared solver base:
//
//   - the hard clauses are loaded once (or inherited from a HardBase
//     built earlier), not once per direction and algorithm run;
//   - the minimize direction relaxes each soft clause C into the hard
//     clause (C ∨ r) with selector ¬r, as the one-shot path does;
//   - the maximize direction is the Kügel CNF negation expressed as a
//     weight view over the same base: each non-unit soft clause C gets
//     a fresh y with hard clauses (¬y ∨ ¬l) for every l ∈ C and
//     selector y, a unit soft (l, w) becomes selector ¬l — no negated
//     formula is ever materialized (this kills the Formula.NegateSoft
//     deep copy);
//   - every algorithm run — min, max, and any MaxHS→RC2 fallback —
//     forks a clone of the base, and runs that add no clauses of their
//     own are adopted back, so learnt clauses implied by the shared
//     clause set accumulate across directions and algorithms.
//
// Both directions' auxiliary clauses coexist soundly in the base: a
// relaxation clause (C ∨ r) is satisfiable by r alone and a negation
// clause (¬y ∨ ¬l) by ¬y alone, so neither constrains the original
// variables; each direction simply prices its own selectors.
//
// An Instance is not safe for concurrent use; build one per goroutine
// (they can share one HardBase).
type Instance struct {
	opts   Options
	f      *cnf.Formula
	base   *sat.Solver
	origin *HardBase // the shared base this instance was cloned from, if any
	// clean records that NewInstance added no clauses beyond the origin
	// snapshot. It must be captured at construction: every later fork
	// resets the solver's AddedSinceClone counter, so a run solver
	// adopted back into base reports 0 even when the instance's own
	// suffix or selector clauses are baked into it.
	clean bool
	total int64
	nVars int
	minW  map[cnf.Lit]int64 // minimize direction: selector → weight
	maxW  map[cnf.Lit]int64 // maximize direction (negation view)
}

// NewInstance builds the shared base for f. base may be nil (the hard
// clauses are loaded from scratch) or a HardBase built from an earlier
// all-hard prefix of f, in which case only the clause suffix is
// replayed onto a clone.
func NewInstance(f *cnf.Formula, base *HardBase, opts Options) *Instance {
	var s *sat.Solver
	start := 0
	if base != nil {
		s = base.clone()
		start = base.nClauses
	} else {
		s = sat.New()
	}
	inst := &Instance{
		opts:   opts,
		f:      f,
		origin: base,
		total:  f.TotalSoftWeight(),
		nVars:  f.NumVars(),
		minW:   make(map[cnf.Lit]int64),
		maxW:   make(map[cnf.Lit]int64),
	}
	// Hard clauses added to f after the snapshot.
	for _, c := range f.Clauses()[start:] {
		if c.Hard() {
			s.AddClause(c.Lits...)
		}
	}
	s.EnsureVars(f.NumVars())
	// Selector plumbing for both directions over ALL soft clauses (a
	// HardBase prefix contains none by contract).
	for _, c := range f.Clauses() {
		if c.Hard() {
			continue
		}
		if len(c.Lits) == 1 {
			inst.minW[c.Lits[0]] += c.Weight
			inst.maxW[c.Lits[0].Neg()] += c.Weight
			continue
		}
		r := cnf.Lit(s.NewVar())
		lits := make([]cnf.Lit, 0, len(c.Lits)+1)
		lits = append(lits, c.Lits...)
		lits = append(lits, r)
		s.AddClause(lits...)
		inst.minW[r.Neg()] += c.Weight
		y := cnf.Lit(s.NewVar())
		for _, l := range c.Lits {
			s.AddClause(y.Neg(), l.Neg())
		}
		inst.maxW[y] += c.Weight
	}
	inst.clean = base != nil && s.AddedSinceClone() == 0
	inst.base = s
	return inst
}

// fork hands an algorithm run its private clone of the base.
func (inst *Instance) fork() *sat.Solver { return inst.base.Clone() }

// Release offers the instance's accumulated base back to the HardBase
// it was cloned from, so learnt clauses gathered across this instance's
// runs carry over to every later instance of the same component (other
// groups of a grouped query, later queries). The hand-back only happens
// when the instance added no clauses beyond the shared snapshot —
// components whose soft clauses are all units and that needed no hard
// suffix — which the AddedSinceClone counter certifies; otherwise this
// is a no-op. Safe to call multiple times; the instance remains usable.
func (inst *Instance) Release() {
	if inst.origin != nil && inst.clean {
		inst.origin.adopt(inst.base)
	}
}

// adopt replaces the base with a solver coming back from a run that
// added no clauses of its own and was never interrupted: everything
// such a solver holds beyond the base — learnt clauses and their
// level-0 consequences — is implied by the shared clause set alone, so
// it is sound for every later direction, algorithm, and fallback.
// Runs that extended the clause set (RC2 hardening and totalizers, LSU
// counters and bans) are rejected by the AddedSinceClone counter, since
// those additions are only valid relative to one direction's objective.
func (inst *Instance) adopt(s *sat.Solver) {
	if s.AddedSinceClone() == 0 && !s.Interrupted() {
		inst.base = s
	}
}

func (inst *Instance) problem(maximize bool) *problem {
	w := inst.minW
	if maximize {
		w = inst.maxW
	}
	return &problem{
		fork:    inst.fork,
		adopt:   inst.adopt,
		weights: w,
		total:   inst.total,
		nVars:   inst.nVars,
		// The max direction scores a model by the falsified soft weight
		// of the ORIGINAL formula. For any model, falsified weight ≥
		// satisfied negation-selector weight (y forces C falsified;
		// units coincide), and every model can flip its y's to make the
		// two equal, so the two objectives have the same optimum and
		// the same optimal models — the score is exact at termination
		// and a sound bound wherever the algorithms use intermediate
		// models (RC2 hardening, LSU banning).
		score: func(model []bool) int64 { return scoreFormula(inst.f, model, maximize) },
	}
}

// SolveMin computes the standard WPMaxSAT optimum of the instance: the
// maximum satisfiable soft weight (glb direction of Proposition IV.1).
func (inst *Instance) SolveMin(ctx context.Context) (Result, error) {
	return inst.solve(ctx, inst.problem(false), "min")
}

// SolveMax computes the optimum of the Kügel negation: the maximum
// achievable FALSIFIED soft weight of the instance (lub direction).
// Result.Optimum carries that falsified weight, exactly as solving
// f.NegateSoft() would report.
func (inst *Instance) SolveMax(ctx context.Context) (Result, error) {
	return inst.solve(ctx, inst.problem(true), "max")
}

func (inst *Instance) solve(ctx context.Context, p *problem, dir string) (Result, error) {
	ctx, sp := obsv.StartSpan(ctx, "maxsat.solve",
		obsv.String("alg", inst.opts.Algorithm.String()), obsv.String("dir", dir))
	res, err := solveProblem(ctx, p, inst.opts)
	if sp != nil {
		sp.SetInt("sat_calls", res.SATCalls)
		sp.SetInt("conflicts", res.Conflicts)
		if err == nil && res.Satisfiable {
			sp.SetInt("optimum", res.Optimum)
		}
		sp.End()
	}
	return res, err
}
