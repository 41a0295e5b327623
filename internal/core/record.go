package core

import (
	"context"
	"sync/atomic"
	"time"

	"aggcavsat/internal/cnf"
	"aggcavsat/internal/obsv"
	"aggcavsat/internal/planner"
)

// recorder funnels the instrumentation of one engine call into obsv
// registries: a call-local registry (from which the call's Stats view is
// built) and, when Options.Metrics is set, a session-wide registry that
// accumulates across calls. Durations land in *_ns counters (exact
// per-call diffs) and in phase-duration histograms.
type recorder struct {
	regs [2]*obsv.Registry
	n    int

	// flight, when non-nil (Options.OnAnomaly set), receives structured
	// events from the phase instrumentation; all Record calls are
	// nil-safe, so the disabled path costs one nil check.
	flight *obsv.FlightRecorder

	// exp, when non-nil (Options.Explain set), collects the per-component
	// breakdown for the call's Explain report; its methods and those of
	// the ComponentExplain entries it hands out are nil-safe.
	exp *explainCollector

	// constraintHit records whether this call's constraint context came
	// from a cache (engine-level reuse or the package-wide DC memo).
	constraintHit atomic.Bool

	// Route verdict of the call, stamped exactly once by rangeAnswers
	// (single writer: the goroutine running the call; read after it
	// returns). routeReason explains a SAT route; planCached reports a
	// plan-cache hit in the planner.
	route        planner.Route
	routeReason  string
	planCached   bool
	routeStamped bool
}

// routed stamps the final route on the recorder and bumps the
// per-route counter — exactly once per engine call, after any fallback
// has settled, so the route counters sum to the calls served.
func (rc *recorder) routed(r planner.Route, reason string, planCached bool) {
	rc.route, rc.routeReason, rc.planCached = r, reason, planCached
	rc.routeStamped = true
	if r == planner.RouteRewrite {
		rc.counter(obsv.MetricRouteRewrite, 1)
	} else {
		rc.counter(obsv.MetricRouteSAT, 1)
	}
}

// newRecorder creates the call-local registry and links the session one.
func (e *Engine) newRecorder() (*recorder, *obsv.Registry) {
	local := obsv.NewRegistry()
	rc := &recorder{}
	rc.regs[0] = local
	rc.n = 1
	if e.opts.Metrics != nil {
		rc.regs[1] = e.opts.Metrics
		rc.n = 2
	}
	if e.opts.OnAnomaly != nil {
		rc.flight = obsv.NewFlightRecorder(e.opts.FlightEvents)
	}
	if e.opts.Explain {
		rc.exp = &explainCollector{}
	}
	// "Cached" until the constraint build proves otherwise (see
	// constraintCtx).
	rc.constraintHit.Store(true)
	rc.gaugeSet(obsv.MetricConsCacheHit, 1)
	return rc, local
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (rc *recorder) counter(name string, n int64) {
	for i := 0; i < rc.n; i++ {
		rc.regs[i].Counter(name).Add(n)
	}
}

func (rc *recorder) gaugeSet(name string, v int64) {
	for i := 0; i < rc.n; i++ {
		rc.regs[i].Gauge(name).Set(v)
	}
}

func (rc *recorder) gaugeMax(name string, v int64) {
	for i := 0; i < rc.n; i++ {
		rc.regs[i].Gauge(name).SetMax(v)
	}
}

func (rc *recorder) observe(name string, d time.Duration) {
	for i := 0; i < rc.n; i++ {
		rc.regs[i].Histogram(name, nil).Observe(d.Seconds())
	}
}

// observeCall feeds one whole-call latency into the session registry:
// the query-duration summary (the p50/p90/p99 source of the /metrics
// exposition and the replay percentile tables) plus the labeled
// request-correlation families keyed by tenant/route/outcome.
// Call-local registries skip it: a single observation has no quantiles
// worth keeping.
func (e *Engine) observeCall(ctx context.Context, rc *recorder, anomaly string, d time.Duration) {
	if e.opts.Metrics == nil {
		return
	}
	e.opts.Metrics.Summary(obsv.MetricQuerySeconds, 0, nil).Observe(d.Seconds())
	tenant := obsv.TenantFrom(ctx)
	if tenant == "" {
		tenant = "none"
	}
	route := "none"
	if rc != nil && rc.routeStamped {
		route = rc.route.String()
	}
	// "slow" is an anomaly for the flight recorder but a success for the
	// SLO plane: the call answered.
	outcome := anomaly
	if outcome == "" || outcome == "slow" {
		outcome = "ok"
	}
	e.opts.Metrics.LabeledCounter(obsv.MetricEngineCalls, obsv.RequestLabels, 0).
		With(tenant, route, outcome).Inc()
	e.opts.Metrics.LabeledHistogram(obsv.MetricEngineCallSeconds, obsv.RequestLabels, nil, 0).
		With(tenant, route, outcome).Observe(d.Seconds())
}

// phaseMark brackets one phase measurement: the wall clock and the
// resource baseline taken when the phase started.
type phaseMark struct {
	start time.Time
	res   obsv.ResourceSample
}

// startPhase samples the clock and the runtime resource counters at a
// phase boundary. The sample is three uint64 reads via runtime/metrics —
// cheap enough to stay always-on next to encode/solve work.
func startPhase() phaseMark {
	return phaseMark{start: time.Now(), res: obsv.SampleResources()}
}

// endPhase records the resource delta of one finished phase (alloc
// counter per phase, live-heap gauge, GC-cycle counter), emits the
// flight-recorder event, and returns the phase's wall time for the
// duration metrics.
func (rc *recorder) endPhase(phase string, pm phaseMark) time.Duration {
	d := time.Since(pm.start)
	delta := obsv.SampleResources().Since(pm.res)
	rc.counter(obsv.MetricPhaseAllocPrefix+phase, delta.AllocBytes)
	rc.gaugeSet(obsv.MetricHeapBytes, delta.HeapBytes)
	rc.counter(obsv.MetricGCCycles, delta.GCCycles)
	rc.flight.Record("phase", phase,
		obsv.Int64("ns", int64(d)),
		obsv.Int64("alloc_bytes", delta.AllocBytes),
		obsv.Int64("heap_bytes", delta.HeapBytes))
	return d
}

func (rc *recorder) endWitness(pm phaseMark) {
	d := rc.endPhase("witness", pm)
	rc.counter(obsv.MetricWitnessNS, int64(d))
	rc.observe(obsv.MetricPhaseSecondsPrefix+"witness", d)
}

// constraint records the (cached) constraint-context build time. It is a
// gauge, not a counter: the grouped path re-records the same cached
// build time once per group and the value must stay idempotent.
func (rc *recorder) constraint(d time.Duration) {
	rc.gaugeSet(obsv.MetricConstraintNS, int64(d))
}

func (rc *recorder) endEncode(pm phaseMark) time.Duration {
	d := rc.endPhase("encode", pm)
	rc.counter(obsv.MetricEncodeNS, int64(d))
	rc.observe(obsv.MetricPhaseSecondsPrefix+"encode", d)
	return d
}

func (rc *recorder) endSolve(pm phaseMark) time.Duration {
	d := rc.endPhase("solve", pm)
	rc.counter(obsv.MetricSolveNS, int64(d))
	rc.observe(obsv.MetricPhaseSecondsPrefix+"solve", d)
	return d
}

func (rc *recorder) endRewrite(pm phaseMark) time.Duration {
	d := rc.endPhase("rewrite", pm)
	rc.counter(obsv.MetricRewriteNS, int64(d))
	rc.observe(obsv.MetricPhaseSecondsPrefix+"rewrite", d)
	return d
}

// baseHit counts one Engine.bases outcome: a component's hard-clause
// encoding and solver base served from the memo (hit) or built (miss).
func (rc *recorder) baseHit(hit bool) {
	if hit {
		rc.counter(obsv.MetricBaseHits, 1)
	} else {
		rc.counter(obsv.MetricBaseMisses, 1)
	}
}

func (rc *recorder) satCalls(n int64) { rc.counter(obsv.MetricSATCalls, n) }
func (rc *recorder) maxsatRun()       { rc.counter(obsv.MetricMaxSATRuns, 1) }
func (rc *recorder) skip()            { rc.counter(obsv.MetricConsistentSkips, 1) }
func (rc *recorder) witnesses(n int)  { rc.counter(obsv.MetricWitnesses, int64(n)) }
func (rc *recorder) groups(n int)     { rc.counter(obsv.MetricGroups, int64(n)) }

func (rc *recorder) absorbFormula(f *cnf.Formula) {
	st := f.Stats()
	rc.counter(obsv.MetricCNFVars, int64(st.Vars))
	rc.counter(obsv.MetricCNFClauses, int64(st.Clauses))
	rc.gaugeMax(obsv.MetricCNFVarsMax, int64(st.Vars))
	rc.gaugeMax(obsv.MetricCNFClausesMax, int64(st.Clauses))
	rc.flight.Record("cnf", "formula",
		obsv.Int64("vars", int64(st.Vars)),
		obsv.Int64("clauses", int64(st.Clauses)))
}

// endEncodeSpan stamps a "core.encode" span with the formula size and
// ends it (nil-safe).
func endEncodeSpan(sp *obsv.Span, f *cnf.Formula) {
	if sp == nil {
		return
	}
	st := f.Stats()
	sp.SetInt("vars", int64(st.Vars))
	sp.SetInt("clauses", int64(st.Clauses))
	sp.End()
}

// StatsFromSnapshot builds the typed Stats view from an obsv metrics
// snapshot. Stats is a projection: every field is defined as the value
// of one metric from the vocabulary in internal/obsv.
func StatsFromSnapshot(s obsv.Snapshot) Stats {
	return Stats{
		WitnessTime:         time.Duration(s.Counters[obsv.MetricWitnessNS]),
		ConstraintTime:      time.Duration(s.Gauges[obsv.MetricConstraintNS]),
		EncodeTime:          time.Duration(s.Counters[obsv.MetricEncodeNS]),
		SolveTime:           time.Duration(s.Counters[obsv.MetricSolveNS]),
		RewriteTime:         time.Duration(s.Counters[obsv.MetricRewriteNS]),
		SATCalls:            s.Counters[obsv.MetricSATCalls],
		MaxSATRuns:          int(s.Counters[obsv.MetricMaxSATRuns]),
		Vars:                int(s.Counters[obsv.MetricCNFVars]),
		Clauses:             int(s.Counters[obsv.MetricCNFClauses]),
		MaxVars:             int(s.Gauges[obsv.MetricCNFVarsMax]),
		MaxClauses:          int(s.Gauges[obsv.MetricCNFClausesMax]),
		ConsistentPartSkips: int(s.Counters[obsv.MetricConsistentSkips]),
		WitnessAllocBytes:   s.Counters[obsv.MetricPhaseAllocPrefix+"witness"],
		EncodeAllocBytes:    s.Counters[obsv.MetricPhaseAllocPrefix+"encode"],
		SolveAllocBytes:     s.Counters[obsv.MetricPhaseAllocPrefix+"solve"],
		HeapBytes:           s.Gauges[obsv.MetricHeapBytes],
		GCCycles:            s.Counters[obsv.MetricGCCycles],
	}
}

// constraintCtx returns the lazily-built constraint context, wrapping
// the first (real) build in a "core.constraints" span and recording the
// cached build time into the call's metrics. Safe for concurrent use:
// parallel workers race into the sync.Once, exactly one performs the
// build (and the one-time span/histogram record), the rest block until
// it finishes.
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
	if built {
		rc.observe(obsv.MetricPhaseSecondsPrefix+"constraint", cc.buildTime)
		// The recorder starts from "cached" (engine-level reuse); only
		// the invocation that actually built the context can downgrade
		// the call's verdict to the memo's outcome. Grouped queries call
		// here once per group — later reuse invocations must not
		// overwrite the builder's miss.
		rc.constraintHit.Store(cc.consCacheHit)
		rc.gaugeSet(obsv.MetricConsCacheHit, b2i(cc.consCacheHit))
	}
	rc.constraint(cc.buildTime)
	if cc.mode == DCMode {
		rc.gaugeSet(obsv.MetricVioFastRels, int64(cc.fastRels))
		rc.gaugeSet(obsv.MetricVioGenericDCs, int64(cc.genericDCs))
	}
	return cc
}
