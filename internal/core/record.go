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
// the Report and Explain, the journal line, the flight bundle and the
// session registry — so they reconcile by construction.
type recorder struct {
	op, query string
	start     time.Time
	span      *obsv.Span

	// flight, when non-nil (Options.OnAnomaly set), receives structured
	// events from the phase instrumentation; all Record calls are
	// nil-safe, so the disabled path costs one nil check. res is the
	// whole-call resource baseline of the bundle.
	flight *obsv.FlightRecorder
	res    obsv.ResourceSample

	explain     bool // collect comps (Options.Explain)
	incremental bool // count base-cache misses (shared-base solve path)

	// mu guards everything below: component workers record in parallel.
	// end reads the record without it, after every worker has joined.
	mu    sync.Mutex
	stats Stats
	ran   [numPhases]bool

	witnesses, groups    int64
	baseHits, baseMisses int64
	rewriteAllocBytes    int64
	// sampledAlloc and sampledGC total the resource deltas of the
	// sampled phases, which endUnits takes out of its window.
	sampledAlloc, sampledGC int64

	// cc is the constraint context the call consulted (nil on the
	// rewrite route); constraintBuilt reports that this call ran its
	// build.
	cc              *constraintContext
	constraintBuilt bool

	comps []*ComponentExplain

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
// the typed record, plus — under OnAnomaly — the flight recorder,
// installed in the context so maxsat progress feeds it too.
func (e *Engine) begin(ctx context.Context, op, query, span string, attrs ...obsv.Attr) (context.Context, *recorder) {
	ctx, sp := obsv.StartSpan(ctx, span, attrs...)
	rc := &recorder{
		op: op, query: query, start: time.Now(), span: sp,
		explain:     e.opts.Explain,
		incremental: e.incremental(),
	}
	if e.opts.OnAnomaly != nil {
		rc.flight = obsv.NewFlightRecorder(0)
		rc.res = obsv.SampleResources()
		ctx = obsv.WithFlightRecorder(ctx, rc.flight)
	}
	return ctx, rc
}

// end closes one engine call on every exit path, error exits included:
// it classifies the anomaly, takes the call's Stats once, and projects
// the session metrics, the flight bundle and the journal line from
// them. answers is nil on an error exit.
func (e *Engine) end(ctx context.Context, rc *recorder, answers []GroupAnswer, err error) Stats {
	dur := time.Since(rc.start)
	anomaly := e.classifyAnomaly(err, dur)
	st := rc.stats
	e.publish(ctx, rc, st, anomaly, dur)
	dump := rc.flight != nil && anomaly != ""
	if e.opts.Journal != nil || dump {
		entry := e.journalEntry(ctx, rc, st, answers, err, dur, anomaly)
		if dump {
			b := obsv.NewBundle(entry, rc.flight, obsv.SampleResources().Since(rc.res))
			// The hook (obsv.DumpDir in particular) stamps the file it
			// wrote, so the journal line can reference the bundle.
			e.opts.OnAnomaly(b)
			entry.FlightBundle = b.File
		}
		e.opts.Journal.Append(entry)
	}
	if rc.span != nil {
		rc.span.SetInt("answers", int64(len(answers)))
		rc.span.SetInt("sat_calls", st.SATCalls)
		rc.span.End()
	}
	return st
}

// classifyAnomaly classifies how a call ended: "" on a clean solve, else
// a typed timeout or budget stop, any other error, or a successful call
// slower than Options.SlowQuery. The classification drives both the
// flight-recorder dump and the journal line's anomaly flag, so it is
// computed once by the caller and shared.
func (e *Engine) classifyAnomaly(err error, dur time.Duration) string {
	switch {
	case errors.Is(err, ErrTimeout):
		return "timeout"
	case errors.Is(err, ErrBudget):
		return "budget"
	case err != nil:
		return "error"
	case e.opts.SlowQuery > 0 && dur > e.opts.SlowQuery:
		return "slow"
	}
	return ""
}

// routed stamps the route on the record — exactly once per engine call,
// so the route counters sum to the calls served.
func (rc *recorder) routed(r planner.Route, reason string) {
	rc.route, rc.routeReason = r.String(), reason
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// publish accumulates the call into the session registry
// (Options.Metrics) once, at call end. Every exit path publishes the
// same names; phase histograms get one observation per phase that ran.
func (e *Engine) publish(ctx context.Context, rc *recorder, st Stats, anomaly string, d time.Duration) {
	reg := e.opts.Metrics
	if reg == nil {
		return
	}
	for _, p := range [...]struct {
		p     phase
		ns    string
		d     time.Duration
		alloc int64
	}{
		{phaseWitness, obsv.MetricWitnessNS, st.WitnessTime, st.WitnessAllocBytes},
		{phaseEncode, obsv.MetricEncodeNS, st.EncodeTime, st.EncodeAllocBytes},
		{phaseSolve, obsv.MetricSolveNS, st.SolveTime, st.SolveAllocBytes},
		{phaseRewrite, obsv.MetricRewriteNS, st.RewriteTime, rc.rewriteAllocBytes},
	} {
		name := phaseNames[p.p]
		reg.Counter(p.ns).Add(int64(p.d))
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
		{obsv.MetricBaseHits, rc.baseHits},
		{obsv.MetricBaseMisses, rc.baseMisses},
		{obsv.MetricRouteRewrite, b2i(rc.route == planner.RouteRewrite.String())},
		{obsv.MetricRouteSAT, b2i(rc.route == planner.RouteSAT.String())},
	} {
		reg.Counter(c.name).Add(c.n)
	}
	reg.Gauge(obsv.MetricCNFVarsMax).SetMax(int64(st.MaxVars))
	reg.Gauge(obsv.MetricCNFClausesMax).SetMax(int64(st.MaxClauses))
	reg.Gauge(obsv.MetricConsCacheHit).Set(b2i(rc.constraintCached()))
	// Gauges a call did not measure keep the previous call's value.
	heap, cons := reg.Gauge(obsv.MetricHeapBytes), reg.Gauge(obsv.MetricConstraintNS)
	fast, generic := reg.Gauge(obsv.MetricVioFastRels), reg.Gauge(obsv.MetricVioGenericDCs)
	if rc.ran != [numPhases]bool{} {
		heap.Set(st.HeapBytes)
	}
	if rc.constraintBuilt {
		cons.Set(int64(st.ConstraintTime))
	}
	if rc.cc != nil {
		if rc.cc.mode == DCMode {
			fast.Set(int64(rc.cc.fastRels))
			generic.Set(int64(rc.cc.genericDCs))
		}
	}

	// The whole-call latency: the query-duration summary (the p50/p90/
	// p99 source of the /metrics exposition and the replay percentile
	// tables) plus the labeled request-correlation families.
	reg.Summary(obsv.MetricQuerySeconds, 0, nil).Observe(d.Seconds())
	tenant := obsv.TenantFrom(ctx)
	if tenant == "" {
		tenant = "none"
	}
	route := rc.route
	if route == "" {
		route = "none"
	}
	// "slow" is an anomaly for the flight recorder but a success for the
	// SLO plane: the call answered.
	outcome := anomaly
	if outcome == "" || outcome == "slow" {
		outcome = "ok"
	}
	reg.LabeledCounter(obsv.MetricEngineCalls, obsv.RequestLabels, 0).
		With(tenant, route, outcome).Inc()
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
// GC cycles) — and emits the flight-recorder event. It returns the
// phase's wall time.
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
	if !pm.sampled {
		rc.flight.Record("phase", phaseNames[p], obsv.Int64("ns", int64(d)))
		return d
	}
	rc.flight.Record("phase", phaseNames[p],
		obsv.Int64("ns", int64(d)),
		obsv.Int64("alloc_bytes", delta.AllocBytes),
		obsv.Int64("heap_bytes", delta.HeapBytes))
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
// units encoded against it): it records the phase, the base-cache
// outcome and the formula size, ends the "core.encode" span (nil-safe),
// and returns the component's Explain entry (nil unless
// Options.Explain; every ComponentExplain method accepts nil).
func (rc *recorder) component(pm phaseMark, sp *obsv.Span, f *cnf.Formula, facts, units int, baseHit bool) *ComponentExplain {
	d := rc.endPhase(phaseEncode, pm)
	st := rc.absorbFormula(f)
	if sp != nil {
		sp.SetInt("vars", int64(st.Vars))
		sp.SetInt("clauses", int64(st.Clauses))
		sp.End()
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if baseHit {
		rc.baseHits++
	} else if rc.incremental {
		rc.baseMisses++
	}
	if !rc.explain {
		return nil
	}
	ce := &ComponentExplain{Index: len(rc.comps), Facts: facts, Witnesses: units,
		Vars: st.Vars, Clauses: st.Clauses, BaseHit: baseHit, EncodeNS: int64(d)}
	rc.comps = append(rc.comps, ce)
	return ce
}

// absorbFormula adds one constructed formula to the CNF-size totals.
func (rc *recorder) absorbFormula(f *cnf.Formula) cnf.Stats {
	st := f.Stats()
	rc.mu.Lock()
	rc.stats.absorb(formulaSize{st.Vars, st.Clauses})
	rc.mu.Unlock()
	rc.flight.Record("cnf", "formula",
		obsv.Int64("vars", int64(st.Vars)),
		obsv.Int64("clauses", int64(st.Clauses)))
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
		rc.comps = append(rc.comps, &ComponentExplain{Index: len(rc.comps), Facts: facts, Witnesses: units,
			Vars: size.vars, Clauses: size.clauses, EncodeNS: int64(d), ClosedForm: true,
			ElimWidth: shape.width, ElimTable: shape.table,
			Directions: []DirectionExplain{{Direction: pass, Algorithm: "elimination"}}})
	}
	rc.mu.Unlock()
	rc.flight.Record("cnf", "elimination",
		obsv.Int64("vars", int64(size.vars)),
		obsv.Int64("clauses", int64(size.clauses)))
}

// closedFormTally accumulates the components of one solve unit answered
// by group elimination (eliminator) — their count and counted Reduction
// IV.1 sizes in stats and, under Options.Explain, their entries — so
// the record takes them with one locked add instead of a phase sample
// per component.
type closedFormTally struct {
	stats Stats
	comps []*ComponentExplain
}

// add tallies one eliminated component: its formula size, closure fact
// count, witness count and elimination shape.
func (t *closedFormTally) add(size formulaSize, facts, units int, shape elimShape, explain bool) {
	t.stats.ClosedFormComponents++
	t.stats.absorb(size)
	if explain {
		t.comps = append(t.comps, &ComponentExplain{Facts: facts, Witnesses: units,
			Vars: size.vars, Clauses: size.clauses, ClosedForm: true,
			ElimWidth: shape.width, ElimTable: shape.table,
			Directions: []DirectionExplain{{Direction: "closed-form", Algorithm: "elimination"}}})
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
	rc.flight.Record("cnf", "closed_form",
		obsv.Int64("components", int64(t.stats.ClosedFormComponents)),
		obsv.Int64("vars", int64(t.stats.Vars)),
		obsv.Int64("clauses", int64(t.stats.Clauses)))
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
// that reused the context reports none, and its explain report carries
// the cached build time instead. Safe for concurrent use: parallel
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
				sp.SetInt("key_groups", int64(len(e.ctx.groups)))
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
