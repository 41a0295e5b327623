package maxsat

import (
	"context"

	"aggcavsat/internal/cnf"
	"aggcavsat/internal/obsv"
	"aggcavsat/internal/sat"
)

// DefaultProgressEvery is the conflict interval between periodic
// "search" progress reports when Options.ProgressEvery is zero.
const DefaultProgressEvery = 10_000

// ProgressInfo is one progress report from a running MaxSAT solve.
// Reports of phase "search" fire every Options.ProgressEvery conflicts
// from inside the CDCL loop; the other phases mark algorithm milestones
// (one report each time the bound trajectory can move).
type ProgressInfo struct {
	// Algorithm is the built-in solver, AlgRC2.
	Algorithm Algorithm
	// Phase is "search" (periodic, inside a SAT call), "model" (a new
	// incumbent model), "core" (an unsat core was extracted), or
	// "stratum" (RC2 descended a stratification level).
	Phase string
	// Iteration counts main-loop iterations of the solver.
	Iteration int64
	// SATCalls and Conflicts are cumulative across the solve.
	SATCalls  int64
	Conflicts int64
	// LearntLive and TrailDepth describe the underlying SAT solver at
	// the time of the report.
	LearntLive int
	TrailDepth int
	// LowerBound and UpperBound bracket the optimum *falsified* weight
	// (the cost being minimized); -1 means not yet known.
	LowerBound int64
	UpperBound int64
}

// ProgressFunc receives progress reports. It is called synchronously
// from inside the solve: keep it fast and do not call back into maxsat.
type ProgressFunc func(ProgressInfo)

// tracker carries the bound trajectory of one solve: it forwards
// progress to the user's ProgressFunc and keeps the last bracket, which
// SolveContext stamps on the "maxsat.solve" span. All methods are
// nil-receiver-safe so the solver calls them unconditionally; with
// neither Progress nor a span there is no tracker and the cost is one
// nil check per milestone.
type tracker struct {
	fn    ProgressFunc
	every int64
	s     *sat.Solver
	iter  int64
	lb    int64
	ub    int64
}

// newTracker returns the tracker of one solve, or nil when nothing
// consumes it: no Progress callback and no span to stamp.
func newTracker(opts Options, sp *obsv.Span) *tracker {
	if opts.Progress == nil && sp == nil {
		return nil
	}
	every := opts.ProgressEvery
	if every <= 0 {
		every = DefaultProgressEvery
	}
	return &tracker{fn: opts.Progress, every: every, lb: -1, ub: -1}
}

// attach points the tracker at the solver s, wiring periodic "search"
// reports every ProgressEvery conflicts when a ProgressFunc consumes
// them.
func (t *tracker) attach(s *sat.Solver) {
	if t == nil {
		return
	}
	t.s = s
	if t.fn != nil {
		s.SetProgress(t.every, func(p sat.Progress) { t.report("search", p) })
	}
}

// report hands one progress observation to the ProgressFunc.
func (t *tracker) report(phase string, p sat.Progress) {
	t.fn(ProgressInfo{
		Algorithm:  AlgRC2,
		Phase:      phase,
		Iteration:  t.iter,
		SATCalls:   p.Solves,
		Conflicts:  p.Conflicts,
		LearntLive: p.LearntLive,
		TrailDepth: p.TrailDepth,
		LowerBound: t.lb,
		UpperBound: t.ub,
	})
}

// step advances the main-loop iteration counter.
func (t *tracker) step() {
	if t != nil {
		t.iter++
	}
}

// bounds updates the falsified-weight bracket (pass -1 to leave a side
// unchanged).
func (t *tracker) bounds(lb, ub int64) {
	if t == nil {
		return
	}
	if lb >= 0 {
		t.lb = lb
	}
	if ub >= 0 {
		t.ub = ub
	}
}

// event emits a milestone report with the current solver state.
func (t *tracker) event(phase string) {
	if t == nil || t.fn == nil {
		return
	}
	t.report(phase, t.s.ProgressSnapshot())
}

// stamp records the last bracket on the solve's span: -1 marks a side
// the solve never bounded.
func (t *tracker) stamp(sp *obsv.Span) {
	if t == nil || sp == nil {
		return
	}
	sp.SetInt("lb", t.lb)
	sp.SetInt("ub", t.ub)
}

// satSolve runs one SAT call under a "sat.solve" span carrying the
// algorithm, assumption count, outcome and the conflicts spent in this
// call. With no tracer on ctx the span path is a nil check.
func satSolve(ctx context.Context, s *sat.Solver, assumptions ...cnf.Lit) sat.Status {
	_, sp := obsv.StartSpan(ctx, "sat.solve", obsv.String("alg", AlgRC2.String()))
	before := s.Stats.Conflicts
	st := s.Solve(assumptions...)
	if sp != nil {
		sp.SetInt("assumptions", int64(len(assumptions)))
		sp.SetStr("result", st.String())
		sp.SetInt("conflicts", s.Stats.Conflicts-before)
		sp.End()
	}
	return st
}
