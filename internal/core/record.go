package core

import (
	"context"
	"errors"
	"sync"
	"time"

	"aggcavsat/internal/cnf"
	"aggcavsat/internal/obsv"
	"aggcavsat/internal/planner"
)

// recorder is the one typed record of an engine call (RangeAnswers /
// ConsistentAnswers): the instrumentation accumulates straight into its
// Stats and the few facts Stats does not carry (route verdict, cache
// outcomes, witness/group counts, the component list). At call end, end
// takes the Stats once and projects every view from that one value —
// the Report, the wide event (the journal line, which under
// Options.Explain is also the explain report) and the session registry
// — so they reconcile by construction.
type recorder struct {
	op, query string
	start     time.Time
	span      *obsv.Span

	explain bool // collect comps (Options.Explain)

	// mu guards everything below: component workers record in parallel.
	// end reads the record without it, after every worker has joined.
	mu    sync.Mutex
	stats Stats
	ran   [numPhases]bool

	witnesses, groups int64
	rewriteAllocBytes int64
	// sampledAlloc and sampledGC total the resource deltas of the
	// sampled phases, which endUnits takes out of its window.
	sampledAlloc, sampledGC int64

	// cc is the constraint context the call consulted (nil on the
	// rewrite route); constraintBuilt reports that this call ran its
	// build.
	cc              *constraintContext
	constraintBuilt bool

	comps []*obsv.ComponentExplain

	// Route verdict of the call ("rewrite"/"sat"; "" until stamped),
	// stamped exactly once by rangeAnswers (single writer: the goroutine
	// running the call). routeReason explains a SAT route.
	route       string
	routeReason string
}

// phase indexes the timed phases of a call.
type phase int

const (
	phaseWitness phase = iota
	phaseEncode
	phaseSolve
	phaseRewrite
	numPhases
)

var phaseNames = [numPhases]string{"witness", "encode", "solve", "rewrite"}

// begin opens one engine call: its root span, the wall-clock start and
// the typed record.
func (e *Engine) begin(ctx context.Context, op, query, span string, attrs ...obsv.Attr) (context.Context, *recorder) {
	ctx, sp := obsv.StartSpan(ctx, span, attrs...)
	return ctx, &recorder{
		op: op, query: query, start: time.Now(), span: sp,
		explain: e.opts.Explain,
	}
}

// end closes one engine call on every exit path, error exits included:
// it classifies the anomaly, takes the call's Stats once, and projects
// the session metrics and the call's wide event from them. The event is
// built once, when a journal is installed or Options.Explain is set:
// the journal appends it, and end returns it (nil otherwise) for the
// Report to carry as its explain report. answers is nil on an error
// exit.
func (e *Engine) end(ctx context.Context, rc *recorder, answers []GroupAnswer, err error) (Stats, *obsv.JournalEntry) {
	dur := time.Since(rc.start)
	anomaly := classifyAnomaly(err)
	st := rc.stats
	e.publish(ctx, rc, st, anomaly, dur)
	var entry *obsv.JournalEntry
	if e.opts.Journal != nil || rc.explain {
		entry = e.journalEntry(ctx, rc, st, answers, err, dur, anomaly)
		e.opts.Journal.Append(*entry)
	}
	if rc.span != nil {
		rc.span.SetInt("answers", int64(len(answers)))
		rc.span.SetInt("sat_calls", st.SATCalls)
		rc.span.End()
	}
	return st, entry
}

// classifyAnomaly classifies how a call ended: "" on a clean solve, else
// a typed timeout or budget stop, or any other error. The journal
// line's anomaly flag and the outcome label of the call metrics are
// both this value.
func classifyAnomaly(err error) string {
	switch {
	case errors.Is(err, ErrTimeout):
		return "timeout"
	case errors.Is(err, ErrBudget):
		return "budget"
	case err != nil:
		return "error"
	}
	return ""
}

// routed stamps the route on the record — exactly once per engine call,
// so the route label of aggcavsat_call_seconds_count sums to the calls
// served.
func (rc *recorder) routed(r planner.Route, reason string) {
	rc.route, rc.routeReason = r.String(), reason
}

// publish accumulates the call into the session registry
// (Options.Metrics) once, at call end. Every exit path publishes the
// same names; phase histograms get one observation per phase that ran,
// so a phase's wall time is its histogram's _sum. Per-call facts that
// do not sum (the live heap, the last constraint build) are the
// journal line's and the explain report's, not a gauge's.
func (e *Engine) publish(ctx context.Context, rc *recorder, st Stats, anomaly string, d time.Duration) {
	reg := e.opts.Metrics
	if reg == nil {
		return
	}
	for _, p := range [...]struct {
		p     phase
		d     time.Duration
		alloc int64
	}{
		{phaseWitness, st.WitnessTime, st.WitnessAllocBytes},
		{phaseEncode, st.EncodeTime, st.EncodeAllocBytes},
		{phaseSolve, st.SolveTime, st.SolveAllocBytes},
		{phaseRewrite, st.RewriteTime, rc.rewriteAllocBytes},
	} {
		name := phaseNames[p.p]
		reg.Counter(obsv.MetricPhaseAllocPrefix + name).Add(p.alloc)
		h := reg.Histogram(obsv.MetricPhaseSecondsPrefix+name, nil)
		if rc.ran[p.p] {
			h.Observe(p.d.Seconds())
		}
	}
	h := reg.Histogram(obsv.MetricPhaseSecondsPrefix+"constraint", nil)
	if rc.constraintBuilt {
		h.Observe(st.ConstraintTime.Seconds())
	}
	for _, c := range [...]struct {
		name string
		n    int64
	}{
		{obsv.MetricSATCalls, st.SATCalls},
		{obsv.MetricMaxSATRuns, int64(st.MaxSATRuns)},
		{obsv.MetricCNFVars, int64(st.Vars)},
		{obsv.MetricCNFClauses, int64(st.Clauses)},
		{obsv.MetricConsistentSkips, int64(st.ConsistentPartSkips)},
		{obsv.MetricClosedForm, int64(st.ClosedFormComponents)},
		{obsv.MetricFolded, st.FoldedAssignments},
		{obsv.MetricGCCycles, st.GCCycles},
		{obsv.MetricWitnesses, rc.witnesses},
		{obsv.MetricGroups, rc.groups},
	} {
		reg.Counter(c.name).Add(c.n)
	}
	reg.Gauge(obsv.MetricCNFVarsMax).SetMax(int64(st.MaxVars))
	reg.Gauge(obsv.MetricCNFClausesMax).SetMax(int64(st.MaxClauses))

	// The whole call is one observation: its _count is the call count,
	// the only per-route and per-call latency series.
	tenant := obsv.TenantFrom(ctx)
	if tenant == "" {
		tenant = "none"
	}
	route := rc.route
	if route == "" {
		route = "none"
	}
	outcome := anomaly
	if outcome == "" {
		outcome = "ok"
	}
	reg.LabeledHistogram(obsv.MetricEngineCallSeconds, obsv.RequestLabels, nil, 0).
		With(tenant, route, outcome).Observe(d.Seconds())
}

// phaseMark brackets one phase measurement: the wall clock and, for a
// call-level boundary, the resource baseline taken when the phase
// started.
type phaseMark struct {
	start   time.Time
	res     obsv.ResourceSample
	sampled bool
}

// startPhase samples the clock and the runtime resource counters at a
// call-level phase boundary (the witness phase, the consistency filter,
// a solver pass). The resource sample is a runtime/metrics read of
// three counters, about a microsecond.
func startPhase() phaseMark {
	return phaseMark{start: time.Now(), res: obsv.SampleResources(), sampled: true}
}

// startUnit samples only the clock, at a boundary inside the per-group
// work of a call, which runs once per group: its allocations are
// charged by the window (startUnits) around that work.
func startUnit() phaseMark {
	return phaseMark{start: time.Now()}
}

// endPhase records one finished phase — its wall time and, for a
// sampled mark, its resource delta (alloc bytes per phase, live heap,
// GC cycles). It returns the phase's wall time.
func (rc *recorder) endPhase(p phase, pm phaseMark) time.Duration {
	d := time.Since(pm.start)
	var delta obsv.ResourceDelta
	if pm.sampled {
		delta = obsv.SampleResources().Since(pm.res)
	}
	rc.mu.Lock()
	s := &rc.stats
	switch p {
	case phaseWitness:
		s.WitnessTime += d
		s.WitnessAllocBytes += delta.AllocBytes
	case phaseEncode:
		s.EncodeTime += d
		s.EncodeAllocBytes += delta.AllocBytes
	case phaseSolve:
		s.SolveTime += d
		s.SolveAllocBytes += delta.AllocBytes
	case phaseRewrite:
		s.RewriteTime += d
		rc.rewriteAllocBytes += delta.AllocBytes
	}
	if pm.sampled {
		s.HeapBytes = delta.HeapBytes
		s.GCCycles += delta.GCCycles
		rc.sampledAlloc += delta.AllocBytes
		rc.sampledGC += delta.GCCycles
	}
	rc.ran[p] = true
	rc.mu.Unlock()
	return d
}

// unitsMark brackets the per-group work of a call: the resources at its
// start and the share of them sampled phases had recorded by then.
type unitsMark struct {
	res                     obsv.ResourceSample
	sampledAlloc, sampledGC int64
}

// startUnits opens the window around a call's per-group work.
func (rc *recorder) startUnits() unitsMark {
	m := unitsMark{res: obsv.SampleResources()}
	rc.mu.Lock()
	m.sampledAlloc, m.sampledGC = rc.sampledAlloc, rc.sampledGC
	rc.mu.Unlock()
	return m
}

// endUnits closes the window: what the work allocated beyond the
// sampled phases inside it (solver passes) was allocated by its
// clock-only phases, which build the groups' instances, and is charged
// to the encode phase.
func (rc *recorder) endUnits(m unitsMark) {
	delta := obsv.SampleResources().Since(m.res)
	rc.mu.Lock()
	s := &rc.stats
	s.EncodeAllocBytes += max(0, delta.AllocBytes-(rc.sampledAlloc-m.sampledAlloc))
	s.GCCycles += max(0, delta.GCCycles-(rc.sampledGC-m.sampledGC))
	s.HeapBytes = delta.HeapBytes
	rc.mu.Unlock()
}

// component closes the encode phase of one independent solver instance
// (a hard-clause component over facts closure facts, with units solve
// units encoded against it): it records the phase and the formula
// size, ends the "core.encode" span (nil-safe),
// and returns the component's explain entry (nil unless
// Options.Explain; every obsv.ComponentExplain method accepts nil).
func (rc *recorder) component(pm phaseMark, sp *obsv.Span, f *cnf.Formula, facts, units int) *obsv.ComponentExplain {
	d := rc.endPhase(phaseEncode, pm)
	st := rc.absorbFormula(f)
	if sp != nil {
		sp.SetInt("vars", int64(st.Vars))
		sp.SetInt("clauses", int64(st.Clauses))
		sp.End()
	}
	if !rc.explain {
		return nil
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	ce := &obsv.ComponentExplain{Index: len(rc.comps), Facts: facts, Witnesses: units,
		Vars: st.Vars, Clauses: st.Clauses, EncodeNS: int64(d)}
	rc.comps = append(rc.comps, ce)
	return ce
}

// absorbFormula adds one constructed formula to the CNF-size totals.
func (rc *recorder) absorbFormula(f *cnf.Formula) cnf.Stats {
	st := f.Stats()
	rc.mu.Lock()
	rc.stats.absorb(formulaSize{st.Vars, st.Clauses})
	rc.mu.Unlock()
	return st
}

// absorb adds one formula, built or counted, to the CNF-size totals.
func (s *Stats) absorb(size formulaSize) {
	s.Vars += size.vars
	s.Clauses += size.clauses
	s.MaxVars = max(s.MaxVars, size.vars)
	s.MaxClauses = max(s.MaxClauses, size.clauses)
}

// eliminated closes the encode phase of a consistency filter or a
// MIN/MAX probe set (pass "consistency" or "probe") that group
// elimination answered whole: it records the phase and the counted size
// of the formula the SAT path would have built over facts closure
// facts for units checked units, and under Options.Explain the entry.
func (rc *recorder) eliminated(pm phaseMark, pass string, facts, units int, size formulaSize, shape elimShape) {
	d := rc.endPhase(phaseEncode, pm)
	rc.mu.Lock()
	rc.stats.absorb(size)
	if rc.explain {
		rc.comps = append(rc.comps, &obsv.ComponentExplain{Index: len(rc.comps), Facts: facts, Witnesses: units,
			Vars: size.vars, Clauses: size.clauses, EncodeNS: int64(d), ClosedForm: true,
			ElimWidth: shape.width, ElimTable: shape.table,
			Directions: []obsv.DirectionExplain{{Direction: pass, Algorithm: "elimination"}}})
	}
	rc.mu.Unlock()
}

// closedFormTally accumulates the components of one solve unit answered
// by group elimination (eliminator) — their count and counted Reduction
// IV.1 sizes in stats and, under Options.Explain, their entries — so
// the record takes them with one locked add instead of a phase sample
// per component.
type closedFormTally struct {
	stats Stats
	comps []*obsv.ComponentExplain
}

// add tallies one eliminated component: its formula size, closure fact
// count, witness count and elimination shape.
func (t *closedFormTally) add(size formulaSize, facts, units int, shape elimShape, explain bool) {
	t.stats.ClosedFormComponents++
	t.stats.absorb(size)
	if explain {
		t.comps = append(t.comps, &obsv.ComponentExplain{Facts: facts, Witnesses: units,
			Vars: size.vars, Clauses: size.clauses, ClosedForm: true,
			ElimWidth: shape.width, ElimTable: shape.table,
			Directions: []obsv.DirectionExplain{{Direction: "closed-form", Algorithm: "elimination"}}})
	}
}

// closedForm records a solve unit's eliminated components.
func (rc *recorder) closedForm(t *closedFormTally) {
	if t.stats.ClosedFormComponents == 0 {
		return
	}
	rc.mu.Lock()
	rc.stats.Add(t.stats)
	for _, ce := range t.comps {
		ce.Index = len(rc.comps)
		rc.comps = append(rc.comps, ce)
	}
	rc.mu.Unlock()
}

// solved records one finished solver pass: its SAT calls and, for a
// completed MaxSAT run, the run itself.
func (rc *recorder) solved(satCalls int64, maxsatRun bool) {
	rc.mu.Lock()
	rc.stats.SATCalls += satCalls
	if maxsatRun {
		rc.stats.MaxSATRuns++
	}
	rc.mu.Unlock()
}

func (rc *recorder) skip() {
	rc.mu.Lock()
	rc.stats.ConsistentPartSkips++
	rc.mu.Unlock()
}

// evaluated closes the witness phase of a call that materialized n
// witnesses and folded the given number of all-safe assignments.
func (rc *recorder) evaluated(pm phaseMark, n int, folded int64) {
	rc.endPhase(phaseWitness, pm)
	rc.mu.Lock()
	rc.witnesses += int64(n)
	rc.stats.FoldedAssignments += folded
	rc.mu.Unlock()
}

// grouped counts the candidate answer groups the witnesses fall into.
func (rc *recorder) grouped(n int) {
	rc.mu.Lock()
	rc.groups += int64(n)
	rc.mu.Unlock()
}

// constraintCtx returns the lazily-built constraint context, wrapping
// the first (real) build in a "core.constraints" span. Only the call
// that ran the build reports its time (Stats.ConstraintTime); a call
// that reused the context reports none, and under Options.Explain its
// wide event carries the cached build time instead. Safe for concurrent use: parallel
// workers race into the sync.Once, exactly one performs the build, the
// rest block until it finishes.
func (e *Engine) constraintCtx(ctx context.Context, rc *recorder) *constraintContext {
	built := false
	e.ctxOnce.Do(func() {
		_, sp := obsv.StartSpan(ctx, "core.constraints")
		e.ctx = e.buildContext()
		built = true
		if sp != nil {
			if e.ctx.mode == KeysMode {
				sp.SetStr("mode", "keys")
				sp.SetInt("violating_groups", int64(e.ctx.keys.NumGroups()))
			} else {
				sp.SetStr("mode", "dc")
				sp.SetInt("violations", int64(len(e.ctx.violations)))
			}
			sp.End()
		}
	})
	cc := e.ctx
	rc.mu.Lock()
	rc.cc = cc
	// Grouped queries call here once per group: only the invocation
	// that ran the build marks it and reports its time, later reuse
	// must not clear the mark.
	if built {
		rc.constraintBuilt = true
		rc.stats.ConstraintTime = cc.buildTime
	}
	rc.mu.Unlock()
	return cc
}

// constraintCached reports whether the call reused the engine's
// constraint context instead of building it.
func (rc *recorder) constraintCached() bool {
	return !rc.constraintBuilt
}
