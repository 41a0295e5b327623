// Package core implements the paper's contribution: computing the range
// consistent answers of aggregation queries via reductions to (Weighted)
// Partial MaxSAT.
//
// The package contains:
//
//   - Reduction IV.1 for scalar COUNT(*), COUNT(A) and SUM(A) queries
//     over schemas with one key constraint per relation;
//   - Algorithm 1 for the DISTINCT variants;
//   - Algorithm 2 for aggregation queries with grouping, built on the
//     consistent answers of the underlying query (the CAvSAT reduction);
//   - Reduction V.1 replacing the key-based hard clauses with clauses
//     derived from minimal violations and near-violations of arbitrary
//     denial constraints;
//   - the iterative-SAT procedure for MIN(A)/MAX(A) from the paper's
//     extended version;
//   - Kügel's CNF-negation to obtain lub-answers (WPMinSAT) with a
//     WPMaxSAT solver.
//
// Proposition IV.1 is the decoding contract: in a maximum (minimum)
// satisfying assignment of the constructed formula, the total weight of
// falsified soft clauses equals the glb-answer (lub-answer), up to the
// constant offset contributed by negative-valued and consistent-part
// witnesses that the encoder folds out.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"aggcavsat/internal/conquer"
	"aggcavsat/internal/constraints"
	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
	"aggcavsat/internal/maxsat"
	"aggcavsat/internal/obsv"
	"aggcavsat/internal/planner"
)

// ConstraintMode selects how repairs are defined.
type ConstraintMode int

const (
	// KeysMode: one key constraint per relation (taken from the schema);
	// hard clauses are the exactly-one α-clauses of Reduction IV.1.
	KeysMode ConstraintMode = iota
	// DCMode: an explicit set of denial constraints; hard clauses follow
	// Reduction V.1 (α from minimal violations, γ/θ from near-violations).
	DCMode
)

// Options configures an Engine.
type Options struct {
	Mode ConstraintMode
	// DCs is the denial-constraint set for DCMode.
	DCs []constraints.DC
	// MaxSAT configures the underlying MaxSAT solver.
	MaxSAT maxsat.Options
	// Parallelism bounds the worker pool that fans out independent solve
	// units (per-group scalar ranges, per-component WPMaxSAT instances,
	// per-candidate consistency checks). 0 means GOMAXPROCS; 1 forces
	// fully sequential solving. Answers are deterministic and identical
	// at every setting: workers write into index-addressed slots and the
	// merge preserves the original group/component order.
	Parallelism int
	// Timeout, when positive, bounds the wall-clock time of every engine
	// call (RangeAnswers / ConsistentAnswers). On expiry the in-flight
	// SAT searches are interrupted cooperatively and the call returns an
	// error matching ErrTimeout — distinct from ErrBudget, which reports
	// an exhausted conflict budget. A deadline or cancellation on the
	// caller's context has the same effect.
	Timeout time.Duration
	// Metrics, when non-nil, accumulates every call into this
	// session-wide registry (e.g. for a Prometheus scrape endpoint),
	// once per call at its end. Per-call Stats are unaffected.
	Metrics *obsv.Registry
	// SlowQuery, when positive, classifies any engine call that takes
	// longer than this threshold as an anomaly even though it succeeded:
	// its flight-recorder bundle is handed to OnAnomaly, so persistently
	// slow queries are diagnosable after the fact without rerunning.
	SlowQuery time.Duration
	// OnAnomaly, when non-nil, enables the per-call flight recorder: a
	// bounded ring of recent structured events (phase ends, solver
	// progress ticks, bound updates, CNF stats) that is assembled into a
	// self-contained obsv.Bundle and passed to this hook whenever a call
	// ends in ErrTimeout/ErrBudget, errors, or exceeds SlowQuery.
	// obsv.DumpDir provides a ready-made sink writing each bundle to a
	// JSON file. The hook runs synchronously at the end of the call.
	OnAnomaly func(*obsv.Bundle)
	// Explain, when true, assembles a per-component Explain report on
	// every Report: which code paths answered the call, the cache
	// outcomes, and one entry per independent solver instance. The
	// breakdown rides on the always-on instrumentation, so enabling it
	// costs a few small allocations per component, never extra solving.
	Explain bool
	// Journal, when non-nil, appends one wide-event line per engine call
	// (RangeAnswers / ConsistentAnswers) to the query journal: query
	// fingerprint, options, answer digest, timings, cache outcomes, and
	// the anomaly classification with its flight-bundle path. The append
	// is non-blocking (obsv.Journal sheds load when the writer lags), so
	// journaling never perturbs answers or stalls solves.
	Journal *obsv.Journal
	// Planner selects how queries are routed between the WPMaxSAT
	// reduction and the ConQuer-style rewriting fast path
	// (internal/planner). The zero value (planner.ModeSAT) preserves the
	// pre-planner behavior: every query solves through SAT.
	// planner.ModeAuto answers C_aggforest queries by pure relational
	// evaluation and falls back to the solver on everything else
	// (including data-dependent rejections discovered mid-rewrite);
	// planner.ModeRewrite forces the rewriting and fails queries it
	// cannot answer. Answers are identical across modes — only the
	// executor changes.
	Planner planner.Mode
}

// Engine computes range consistent answers over one instance. The
// constraint context (key-equal groups or minimal violations and
// near-violations) is computed once and shared across queries.
type Engine struct {
	in      *db.Instance
	eval    *cq.Evaluator
	opts    Options
	planner *planner.Planner

	// ctx is built at most once, under ctxOnce: parallel workers race to
	// be the builder, everyone else blocks until the build finishes and
	// then shares the immutable result.
	ctxOnce sync.Once
	ctx     *constraintContext

	// bases caches, per component (keyed by its sorted closure fact
	// set), the hard-clause encoder output and the loaded solver base,
	// so grouped queries and repeated calls whose components coincide
	// clone the base instead of re-encoding and re-loading identical
	// hard clauses. See componentBase.
	bases sync.Map // componentKey(facts) → *baseEntry

	// elimBudget is the largest bucket table group elimination builds:
	// elimTableBudget, which tests lower to send components to the
	// solver.
	elimBudget int
}

// New creates an engine for the instance. For DCMode the constraints are
// validated against the schema.
func New(in *db.Instance, opts Options) (*Engine, error) {
	if opts.Mode == DCMode {
		if len(opts.DCs) == 0 {
			return nil, fmt.Errorf("core: DCMode requires at least one denial constraint")
		}
		for _, dc := range opts.DCs {
			if err := dc.Validate(in.Schema()); err != nil {
				return nil, err
			}
		}
	}
	e := &Engine{in: in, eval: cq.NewEvaluator(in), opts: opts, elimBudget: elimTableBudget}
	e.planner = planner.New(in, opts.Planner, opts.Mode == DCMode)
	e.eval.SetParallelism(e.parallelism())
	return e, nil
}

// Instance returns the engine's instance.
func (e *Engine) Instance() *db.Instance { return e.in }

// Range is a range consistent answer interval.
type Range struct {
	GLB db.Value
	LUB db.Value
	// FromConsistentPart reports that the interval was derived entirely
	// from facts outside every violation, with no MaxSAT instance at all
	// (the paper's low-selectivity shortcut).
	FromConsistentPart bool
	// EmptyPossible (MIN/MAX only) reports that some repair yields an
	// empty result (where the aggregate would be SQL NULL); the
	// endpoints then range over the non-empty repairs.
	EmptyPossible bool
}

// GroupAnswer pairs a grouping key with its range. Scalar queries use an
// empty key.
type GroupAnswer struct {
	Key db.Tuple
	Range
}

// Stats instruments one RangeAnswers call with the measurements the
// paper reports: the encode/solve time split (Figures 1 and 9), CNF
// sizes (Table III), and the number of SAT calls (Figures 7 and 8).
type Stats struct {
	WitnessTime    time.Duration // evaluating the underlying query
	ConstraintTime time.Duration // key-equal groups / minimal+near violations
	EncodeTime     time.Duration // clause construction
	SolveTime      time.Duration // MaxSAT / SAT solving
	RewriteTime    time.Duration // ConQuer-style rewriting execution (planner fast path)

	SATCalls            int64 // SAT solver invocations (across MaxSAT runs)
	MaxSATRuns          int   // number of MaxSAT instances solved
	Vars                int   // total variables across the reductions' formulas
	Clauses             int   // total clauses across the reductions' formulas
	MaxVars             int   // largest single formula
	MaxClauses          int
	ConsistentPartSkips int // groups answered without any SAT instance
	// ClosedFormComponents counts the keys-mode COUNT/SUM components
	// answered by group elimination, with no formula built or solved;
	// their counted Reduction IV.1 sizes are in Vars/Clauses all the
	// same.
	ClosedFormComponents int
	// FoldedAssignments counts the witnessing assignments made only of
	// safe facts that were folded into the consistent part's constant
	// instead of materialized as witnesses.
	FoldedAssignments int64

	// Per-phase resource accounting, sampled via runtime/metrics around
	// each phase. The alloc counters are process-global: with
	// Parallelism > 1 concurrent phases each observe the shared
	// allocation stream, the same caveat as the summed phase durations.
	WitnessAllocBytes int64 // heap bytes allocated during witness evaluation
	EncodeAllocBytes  int64 // … during clause construction
	SolveAllocBytes   int64 // … during MaxSAT/SAT solving
	HeapBytes         int64 // live heap size at the last phase boundary
	GCCycles          int64 // GC cycles completed during measured phases
}

// Add merges another call's Stats into s: times, counts and allocations
// sum; the largest-formula sizes and the live heap take the maximum.
func (s *Stats) Add(o Stats) {
	s.WitnessTime += o.WitnessTime
	s.ConstraintTime += o.ConstraintTime
	s.EncodeTime += o.EncodeTime
	s.SolveTime += o.SolveTime
	s.RewriteTime += o.RewriteTime
	s.SATCalls += o.SATCalls
	s.MaxSATRuns += o.MaxSATRuns
	s.Vars += o.Vars
	s.Clauses += o.Clauses
	s.MaxVars = max(s.MaxVars, o.MaxVars)
	s.MaxClauses = max(s.MaxClauses, o.MaxClauses)
	s.ConsistentPartSkips += o.ConsistentPartSkips
	s.ClosedFormComponents += o.ClosedFormComponents
	s.FoldedAssignments += o.FoldedAssignments
	s.WitnessAllocBytes += o.WitnessAllocBytes
	s.EncodeAllocBytes += o.EncodeAllocBytes
	s.SolveAllocBytes += o.SolveAllocBytes
	s.HeapBytes = max(s.HeapBytes, o.HeapBytes)
	s.GCCycles += o.GCCycles
}

// Report is the result of RangeAnswers. Stats, Explain (present only
// under Options.Explain) and the call's journal line are projections of
// the one per-call record, so their figures agree exactly.
type Report struct {
	Answers []GroupAnswer
	Stats   Stats
	Explain *Explain
	// Route records which executor answered the call: "rewrite" (the
	// planner's SAT-free fast path) or "sat" (the WPMaxSAT reduction).
	// RouteReason explains a SAT route (why the rewriting was not
	// taken); empty on the rewrite route.
	Route       string
	RouteReason string
}

// RangeAnswers computes the range consistent answers of the aggregation
// query under the engine's constraints. Scalar queries yield exactly one
// GroupAnswer with an empty key; grouped queries yield one GroupAnswer
// per consistent group (Algorithm 2).
func (e *Engine) RangeAnswers(q cq.AggQuery) (*Report, error) {
	return e.RangeAnswersContext(context.Background(), q)
}

// RangeAnswersContext is RangeAnswers under a context that may carry an
// obsv.Tracer: the call is wrapped in a "query.range_answers" span with
// child spans for witness evaluation, constraint building, per-group
// encoding and every MaxSAT/SAT solve.
func (e *Engine) RangeAnswersContext(ctx context.Context, q cq.AggQuery) (*Report, error) {
	q = q.BuildHead()
	if err := q.Validate(e.in.Schema()); err != nil {
		return nil, err
	}
	switch q.Op {
	case cq.CountStar, cq.Count, cq.CountDistinct, cq.Sum, cq.SumDistinct,
		cq.Min, cq.Max:
	default:
		return nil, fmt.Errorf("core: %s is not supported (open problem in the paper); use internal/exhaustive", q.Op)
	}
	if e.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.opts.Timeout)
		defer cancel()
	}
	ctx, rc := e.begin(ctx, "range_answers/"+q.Op.String(), q.String(),
		"query.range_answers", obsv.String("op", q.Op.String()))
	rep, err := e.rangeAnswers(ctx, q, rc)
	if err != nil {
		e.end(ctx, rc, nil, err)
		return nil, err
	}
	rep.Stats = e.end(ctx, rc, rep.Answers, nil)
	rep.Route = rc.route
	rep.RouteReason = rc.routeReason
	if e.opts.Explain {
		rep.Explain = e.buildExplain(ctx, rc, q.Op.String(), rep.Stats)
	}
	return rep, nil
}

// rangeAnswers routes one call: the planner picks the executor, the
// route is stamped on the record exactly once (so the per-route
// counters sum to the calls served), and a rewrite that rejects itself
// mid-execution on a data-dependent property falls back to the solver
// in auto mode.
func (e *Engine) rangeAnswers(ctx context.Context, q cq.AggQuery, rc *recorder) (*Report, error) {
	d := e.planner.Decide(q)
	if d.Route == planner.RouteRewrite {
		rep, err := e.rewriteRange(ctx, q, d.Plan, rc)
		switch {
		case err == nil:
			rc.routed(planner.RouteRewrite, "", d.PlanCached)
			return rep, nil
		case !errors.Is(err, conquer.ErrNotInClass):
			// Real failure (cancellation, timeout) on the rewrite route.
			rc.routed(planner.RouteRewrite, "", d.PlanCached)
			return nil, err
		case e.opts.Planner == planner.ModeRewrite:
			rc.routed(planner.RouteRewrite, "", d.PlanCached)
			return nil, err
		default:
			// Data-dependent rejection discovered at execution time:
			// fall through to the solver.
			d = planner.Decision{Route: planner.RouteSAT,
				Reason: "runtime fallback: " + planner.TrimReason(err), PlanCached: d.PlanCached}
		}
	}
	if e.opts.Planner == planner.ModeRewrite {
		rc.routed(planner.RouteSAT, d.Reason, d.PlanCached)
		return nil, fmt.Errorf("%w: %s", planner.ErrRewriteUnavailable, d.Reason)
	}
	rc.routed(planner.RouteSAT, d.Reason, d.PlanCached)
	if q.Scalar() {
		rep := &Report{}
		ans, err := e.scalarRange(ctx, q, rc)
		if err != nil {
			return nil, err
		}
		rep.Answers = []GroupAnswer{{Key: db.Tuple{}, Range: ans}}
		return rep, nil
	}
	return e.groupedRange(ctx, q, rc)
}

// constraintContext is the per-instance constraint structure shared by
// all queries.
type constraintContext struct {
	mode ConstraintMode

	// Keys mode.
	groupOf   []int // fact -> key-equal group index
	groups    []db.KeyEqualGroup
	groupSafe []bool // group has a single member
	// nodes pools the dense group → node tables of splitKeys (*[]int32,
	// every entry -1 at rest).
	nodes sync.Pool

	// DC mode.
	violations []constraints.Violation
	nearIdx    *constraints.NearViolationIndex
	// adj lists, per fact, the other facts sharing a violation with it.
	adj [][]db.FactID

	buildTime time.Duration

	// Provenance of the build, surfaced in explain reports and journal
	// lines: how the DC set split between the key-aware fast path and
	// the generic route (zero values in keys mode).
	fastRels   int
	genericDCs int
}

// context lazily builds the constraint context (concurrency-safe) and
// reports whether this call ran the build.
func (e *Engine) context() (cc *constraintContext, built bool) {
	e.ctxOnce.Do(func() {
		e.ctx = e.buildContext()
		built = true
	})
	return e.ctx, built
}

// buildContext performs the actual (one-time) construction.
func (e *Engine) buildContext() *constraintContext {
	start := time.Now()
	ctx := &constraintContext{mode: e.opts.Mode}
	n := e.in.NumFacts()
	switch e.opts.Mode {
	case KeysMode:
		ctx.groups = e.in.KeyEqualGroups()
		ctx.groupOf = make([]int, n)
		ctx.groupSafe = make([]bool, len(ctx.groups))
		for gi, g := range ctx.groups {
			ctx.groupSafe[gi] = len(g.Facts) == 1
			for _, f := range g.Facts {
				ctx.groupOf[f] = gi
			}
		}
	case DCMode:
		ctx.violations = constraints.MinimalViolations(e.eval, e.opts.DCs)
		ctx.nearIdx = constraints.BuildNearViolations(ctx.violations, n)
		ctx.fastRels, ctx.genericDCs = constraints.FastPathInfo(e.in.Schema(), e.opts.DCs)
		ctx.adj = make([][]db.FactID, n)
		for _, v := range ctx.violations {
			for _, f := range v {
				for _, g := range v {
					if f != g {
						ctx.adj[f] = append(ctx.adj[f], g)
					}
				}
			}
		}
	}
	ctx.buildTime = time.Since(start)
	return ctx
}

// safe reports whether the fact survives in every repair.
func (ctx *constraintContext) safe(f db.FactID) bool {
	switch ctx.mode {
	case KeysMode:
		return ctx.groupSafe[ctx.groupOf[f]]
	default:
		return ctx.nearIdx.Safe(f)
	}
}

// groupNodes returns a pooled group → node table, every entry -1; the
// caller resets the entries it set before putting it back in nodes.
func (ctx *constraintContext) groupNodes() []int32 {
	if p, ok := ctx.nodes.Get().(*[]int32); ok {
		return *p
	}
	node := make([]int32, len(ctx.groups))
	for i := range node {
		node[i] = -1
	}
	return node
}

// allSafe reports whether every fact of the witness is safe.
func (ctx *constraintContext) allSafe(facts []db.FactID) bool {
	for _, f := range facts {
		if !ctx.safe(f) {
			return false
		}
	}
	return true
}

// closure expands the seed facts (repeats allowed) to the set whose
// repair behaviour is entangled with them: key-equal siblings (keys
// mode) or the connected component under shared minimal violations (DC
// mode). The hard clauses built over the closure induce exactly the
// repairs of the sub-instance, which factor out of the rest of the
// database. The result is sorted.
func (ctx *constraintContext) closure(seed []db.FactID) []db.FactID {
	var out []db.FactID
	switch ctx.mode {
	case KeysMode:
		// Key-equal groups are disjoint and closed under the expansion:
		// the closure is the union of the seeds' distinct groups.
		gis := make([]int, len(seed))
		for i, f := range seed {
			gis[i] = ctx.groupOf[f]
		}
		slices.Sort(gis)
		for _, gi := range slices.Compact(gis) {
			out = append(out, ctx.groups[gi].Facts...)
		}
	case DCMode:
		inSet := map[db.FactID]bool{}
		stack := slices.Clone(seed)
		for len(stack) > 0 {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if inSet[f] {
				continue
			}
			inSet[f] = true
			out = append(out, f)
			stack = append(stack, ctx.adj[f]...)
		}
	}
	sortFactIDs(out)
	return out
}

func sortFactIDs(ids []db.FactID) { slices.Sort(ids) }
