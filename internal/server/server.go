package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"aggcavsat"
	"aggcavsat/internal/constraints"
	"aggcavsat/internal/core"
	"aggcavsat/internal/db"
	"aggcavsat/internal/obsv"
)

// Metric names of the query service, registered in the obsv registry
// and exposed through the same /metrics scrape as the engine counters.
const (
	// MetricRequests is a labeled family: every /query request lands in
	// exactly one (tenant, route, outcome) series. route is the executor
	// that answered ("rewrite", "sat", "mixed", "cache" for result-cache
	// hits, "none" on errors); outcome is "ok", "shed", "timeout", or
	// "error". The family is cardinality-bounded (requestSeriesCap) with
	// an "_overflow" catch-all.
	MetricRequests = "cavsatd_requests_total"
	// MetricRequestDuration is the labeled request-latency histogram the
	// /debug/slo burn rates are computed from; same label schema as
	// MetricRequests, buckets extended with the SLO latency target so
	// attainment reconciles exactly with the bucket counts.
	MetricRequestDuration = "cavsatd_request_duration_seconds"

	MetricInflight  = "cavsatd_inflight"    // gauge: admitted solves currently running
	MetricQueued    = "cavsatd_queue_depth" // gauge: requests waiting for a slot
	MetricCacheHit  = "cavsatd_cache_hits_total"
	MetricCacheMiss = "cavsatd_cache_misses_total"
	MetricCoalesced = "cavsatd_coalesced_total" // joined an identical in-flight solve
	MetricTenants   = "cavsatd_instances"       // gauge: attached tenants

	// Per-route counters: every 200 /query response increments exactly
	// one, cached answers under the route that originally computed them,
	// so the family sums to the queries served. (The engine's own
	// aggcavsat_planner_route_total counts solves, which cache hits never
	// reach.)
	MetricRouteRewrite = `cavsatd_route_total{route="rewrite"}`
	MetricRouteSAT     = `cavsatd_route_total{route="sat"}`
	MetricRouteMixed   = `cavsatd_route_total{route="mixed"}`
)

// requestSeriesCap bounds the (tenant, route, outcome) cardinality of
// the labeled request families: 5 routes × 4 outcomes leaves room for
// ~12 tenants before new tuples fall into the "_overflow" series.
const requestSeriesCap = 256

// Config tunes the query service.
type Config struct {
	// MaxInFlight bounds concurrently solving requests (the weighted
	// semaphore's capacity). 0 means 4.
	MaxInFlight int
	// MaxQueue bounds requests waiting for a solve slot; arrivals
	// beyond it are shed with 429 immediately. 0 means 2×MaxInFlight;
	// negative means no queue (shed as soon as the gate is full).
	MaxQueue int
	// QueueWait bounds how long an admitted-to-queue request may wait
	// for a slot before being shed with 429. 0 means 5s.
	QueueWait time.Duration
	// RequestTimeout is the default per-request deadline propagated
	// through QueryContext (requests may lower it, never raise it
	// above this bound). 0 means 30s.
	RequestTimeout time.Duration
	// CacheEntries bounds the result cache; 0 means 1024, negative
	// disables caching (singleflight coalescing stays on).
	CacheEntries int
	// RetryAfter is the hint returned with 429 responses. 0 means 1s.
	RetryAfter time.Duration
	// Planner is the routing policy applied to every tenant engine the
	// server builds (AttachDir and hot attaches). The zero value is
	// force-sat; cavsatd defaults its -planner flag to auto.
	Planner aggcavsat.PlannerMode

	// SLOLatency is the latency objective target: a request answered
	// within it counts toward the latency SLO. It is added to the
	// request-duration histogram buckets, so /debug/slo attainment
	// reconciles exactly with the bucket counts. 0 means 250ms.
	SLOLatency time.Duration
	// SLOAvailability is the target fraction for both the availability
	// and latency objectives, in (0,1). 0 means 0.999.
	SLOAvailability float64
	// TraceSample is the probability of retaining the span buffer of a
	// healthy, fast request (slow/errored/shed requests are always
	// retained). 0 disables probabilistic retention.
	TraceSample float64
	// TraceRetain bounds the retained-trace store backing
	// /debug/trace?trace=<id>. 0 means obsv.DefaultRetainedTraces.
	TraceRetain int
	// RequestSpans bounds each per-request span buffer. 0 means 512.
	RequestSpans int

	// Metrics receives the service counters and, when also passed to
	// tenant Options, the engine's own; required (New creates one if
	// nil so the debug plane always has something to scrape).
	Metrics *obsv.Registry
	// Tracer, when non-nil, backs /debug/trace and absorbs every
	// finished per-request trace (the live process-wide view).
	Tracer *obsv.Tracer
	// Journal, when non-nil, receives the engine's wide-event lines
	// (stamped "<instance>/<label>") and backs /debug/journal.
	Journal *obsv.Journal
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 4
	}
	switch {
	case c.MaxQueue == 0:
		c.MaxQueue = 2 * c.MaxInFlight
	case c.MaxQueue < 0:
		c.MaxQueue = 0
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 5 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	switch {
	case c.CacheEntries == 0:
		c.CacheEntries = 1024
	case c.CacheEntries < 0:
		c.CacheEntries = 0
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.SLOLatency <= 0 {
		c.SLOLatency = 250 * time.Millisecond
	}
	if c.SLOAvailability <= 0 || c.SLOAvailability >= 1 {
		c.SLOAvailability = 0.999
	}
	if c.RequestSpans <= 0 {
		c.RequestSpans = 512
	}
	if c.Metrics == nil {
		c.Metrics = obsv.NewRegistry()
	}
	return c
}

// Server is the cavsatd query service: attach tenants, then serve
// Handler (or Start a listener).
type Server struct {
	cfg     Config
	tenants *tenants
	gate    *gate
	cache   *resultCache

	requests *obsv.LabeledCounter
	duration *obsv.LabeledHistogram
	tenantsG *obsv.Gauge

	routeRewrite *obsv.Counter
	routeSAT     *obsv.Counter
	routeMixed   *obsv.Counter

	traces *obsv.TraceStore
	slo    *obsv.SLOTracker

	// exec runs one admitted query; tests override it to wedge or
	// instrument the solver without a real slow instance.
	exec func(ctx context.Context, t *Tenant, req *QueryRequest) (*aggcavsat.Result, error)
}

// New builds a Server from the config.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	// The SLO latency target joins the duration buckets so attainment is
	// an exact bucket count, never an interpolation.
	buckets := append(append([]float64(nil), obsv.DurationBuckets...), cfg.SLOLatency.Seconds())
	s := &Server{
		cfg:     cfg,
		tenants: newTenants(),
		gate:    newGate(int64(cfg.MaxInFlight), cfg.MaxQueue, cfg.QueueWait),
		cache:   newResultCache(cfg.CacheEntries),

		requests: reg.LabeledCounter(MetricRequests, obsv.RequestLabels, requestSeriesCap),
		duration: reg.LabeledHistogram(MetricRequestDuration, obsv.RequestLabels, buckets, requestSeriesCap),
		tenantsG: reg.Gauge(MetricTenants),

		routeRewrite: reg.Counter(MetricRouteRewrite),
		routeSAT:     reg.Counter(MetricRouteSAT),
		routeMixed:   reg.Counter(MetricRouteMixed),

		traces: obsv.NewTraceStore(cfg.TraceRetain),
	}
	s.slo = &obsv.SLOTracker{
		Source:                s.sloCounts,
		AvailabilityObjective: cfg.SLOAvailability,
		LatencyObjective:      cfg.SLOAvailability,
		LatencyTarget:         cfg.SLOLatency,
	}
	s.gate.wire(reg.Gauge(MetricInflight), reg.Gauge(MetricQueued))
	s.cache.wire(reg.Counter(MetricCacheHit), reg.Counter(MetricCacheMiss), reg.Counter(MetricCoalesced))
	s.exec = s.runQuery
	return s
}

// sloCounts reads the SLO plane's cumulative inputs straight from the
// labeled request families, so /debug/slo reconciles with /metrics by
// construction: availability counts outcome="ok" over everything, the
// latency objective counts ok requests answered within the SLO bucket.
func (s *Server) sloCounts() obsv.SLOCounts {
	isOK := func(values []string) bool { return values[2] == "ok" }
	under, latTotal := s.duration.CountUnder(s.cfg.SLOLatency.Seconds(), isOK)
	return obsv.SLOCounts{
		Total:        s.requests.Sum(nil),
		Good:         s.requests.Sum(isOK),
		LatencyTotal: latTotal,
		LatencyOK:    under,
	}
}

// Attach registers an already-built tenant (e.g. the -dbgen demo
// instance) under name; re-attaching replaces it at a fresh version.
func (s *Server) Attach(name, dir string, sys *aggcavsat.System, in *db.Instance, dcs []constraints.DC) *Tenant {
	t := s.tenants.attach(name, dir, sys, in, dcs)
	s.tenantsG.Set(int64(s.tenants.count()))
	return t
}

// AttachDir loads a schema.txt + CSV directory and attaches it, sharing
// the server's metrics/journal wiring with the tenant's engine.
func (s *Server) AttachDir(name, dir string, opts aggcavsat.Options) (*Tenant, error) {
	opts.Metrics = s.cfg.Metrics
	opts.Journal = s.cfg.Journal
	opts.Planner = s.cfg.Planner
	sys, in, dcs, err := LoadTenantDir(dir, opts)
	if err != nil {
		return nil, err
	}
	return s.Attach(name, dir, sys, in, dcs), nil
}

// Tenant resolves an attached tenant by name ("" when exactly one).
func (s *Server) Tenant(name string) (*Tenant, error) { return s.tenants.get(name) }

// Handler builds the service mux: /query, /admin/instances and
// /debug/slo, with every other path (in particular /metrics, /healthz,
// /debug/*) falling through to the obsv debug plane over the server's
// registry, tracer, journal and retained-trace store.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/admin/instances", s.handleInstances)
	mux.HandleFunc("/debug/slo", s.handleSLO)
	mux.Handle("/", obsv.NewHandler(obsv.HandlerConfig{
		Registry: s.cfg.Metrics,
		Tracer:   s.cfg.Tracer,
		Journal:  s.cfg.Journal,
		Traces:   s.traces,
		Extra: func() map[string]any {
			return map[string]any{"instances": s.tenants.count()}
		},
	}))
	return mux
}

// handleSLO serves the SLO report: availability and latency attainment
// plus 5m/1h burn rates, computed from the same labeled request
// families /metrics exposes.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	// Fold the current counters in even if no request landed since the
	// last observation (e.g. a scrape-only process).
	s.slo.Observe()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.slo.Report())
}

// handleQuery is the serving hot path: trace identity → decode →
// resolve tenant → result cache / singleflight → admission gate →
// deadline-bounded solve → typed JSON. Every exit path lands in
// finishRequest, which observes the labeled request families, feeds the
// SLO tracker, and decides tail-based trace retention.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	// Trace identity: adopt the caller's traceparent trace id (minting a
	// fresh one on absence or malformed headers, per W3C restart rules)
	// and record the whole request into its own bounded tracer.
	tc := traceContextFor(r)
	rt := obsv.NewTracerWithID(tc.TraceID)
	rt.MaxSpans = s.cfg.RequestSpans
	ctx := obsv.WithTraceContext(r.Context(), tc)
	ctx = obsv.WithTracer(ctx, rt)
	ctx, rootSp := obsv.StartSpan(ctx, "server.request", obsv.String("method", r.Method))
	// The response header re-parents the caller onto the server's root
	// span; set before any body write.
	w.Header().Set("Traceparent",
		obsv.TraceContext{TraceID: tc.TraceID, SpanID: rootSp.SpanID(), Sampled: true}.Traceparent())

	tenant, route, outcome, label := "unknown", "none", "error", ""
	defer func() {
		rootSp.SetStr("outcome", outcome)
		rootSp.End()
		s.finishRequest(rt, tenant, route, outcome, label, start, time.Since(start))
	}()

	req, err := decodeQueryRequest(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	label = req.Label
	if label == "" {
		label = req.SQL
	}
	t, err := s.tenants.get(req.Instance)
	if err != nil {
		writeError(w, http.StatusNotFound, CodeUnknownInstance, "%v", err)
		return
	}
	tenant = t.Name
	rootSp.SetStr("tenant", tenant)

	key := cacheKey{
		queryFP:      core.Fingerprint64(normalizeSQL(req.SQL)),
		constraintFP: t.ConstraintFP,
		version:      t.Version,
		dataVersion:  t.DataVersion,
		planner:      t.Planner,
	}
	resp, served, err := s.cache.Do(ctx, key, func() (*QueryResponse, error) {
		return s.admitAndSolve(ctx, t, req)
	})
	if err != nil {
		outcome = outcomeOf(err)
		s.writeQueryError(w, err)
		return
	}
	// Cached/coalesced answers share one QueryResponse across requests:
	// copy before stamping per-request fields. The trace id is this
	// request's own — on a cache hit the journal line of the original
	// solve keeps the solver's trace id, while the response cross-links
	// to this request's retained trace.
	out := *resp
	out.Instance = t.Name
	out.Version = t.Version
	out.Cached = served
	out.TraceID = tc.TraceID.String()
	out.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	outcome = "ok"
	route = out.Route
	if served {
		route = "cache"
	}
	rootSp.SetStr("route", route)
	s.countRoute(out.Route)
	writeJSON(w, http.StatusOK, &out)
}

// outcomeOf maps a /query failure onto the labeled outcome vocabulary:
// "shed", "timeout" (deadline or budget), or "error".
func outcomeOf(err error) string {
	switch {
	case errors.Is(err, ErrShed) || errors.Is(err, ErrQueueTimeout):
		return "shed"
	case errors.Is(err, aggcavsat.ErrTimeout), errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, aggcavsat.ErrBudget):
		return "timeout"
	default:
		return "error"
	}
}

// traceContextFor extracts the caller's W3C traceparent, minting a fresh
// sampled context when the header is absent or malformed.
func traceContextFor(r *http.Request) obsv.TraceContext {
	if tp := r.Header.Get("traceparent"); tp != "" {
		if tc, err := obsv.ParseTraceparent(tp); err == nil {
			return tc
		}
	}
	return obsv.NewTraceContext()
}

// finishRequest is the single request epilogue: labeled metric
// observation, SLO sampling, the tail-based retention decision, and the
// absorb of the per-request trace into the process-wide tracer.
func (s *Server) finishRequest(rt *obsv.Tracer, tenant, route, outcome, query string, start time.Time, elapsed time.Duration) {
	s.requests.With(tenant, route, outcome).Inc()
	s.duration.With(tenant, route, outcome).Observe(elapsed.Seconds())
	s.slo.Observe()

	reason := ""
	switch {
	case outcome != "ok":
		reason = outcome
	case elapsed > s.cfg.SLOLatency:
		reason = "slow"
	case s.cfg.TraceSample > 0 && rand.Float64() < s.cfg.TraceSample:
		reason = "sample"
	}
	if reason != "" {
		s.traces.Keep(obsv.RetainedTrace{
			TraceID:  rt.TraceID(),
			Reason:   reason,
			Query:    query,
			Tenant:   tenant,
			Start:    start,
			Duration: elapsed,
			Tracer:   rt,
		})
	}
	if s.cfg.Tracer != nil {
		s.cfg.Tracer.Absorb(rt)
	}
}

// admitAndSolve passes the admission gate, applies the per-request
// deadline, and runs the query.
func (s *Server) admitAndSolve(ctx context.Context, t *Tenant, req *QueryRequest) (*QueryResponse, error) {
	if err := s.gate.Acquire(ctx, 1); err != nil {
		return nil, err
	}
	defer s.gate.Release(1)
	timeout := s.cfg.RequestTimeout
	if req.TimeoutMS > 0 {
		if d := time.Duration(req.TimeoutMS) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	res, err := s.exec(ctx, t, req)
	if err != nil {
		return nil, err
	}
	return BuildResponse(res), nil
}

// runQuery is the default exec: label the context with the tenant (and
// the caller's label when given) so journal lines and traces carry the
// tenant identity, then run the statement.
func (s *Server) runQuery(ctx context.Context, t *Tenant, req *QueryRequest) (*aggcavsat.Result, error) {
	label := req.Label
	if label == "" {
		label = req.SQL
	}
	ctx = obsv.WithQueryLabel(ctx, t.Name+"/"+label)
	ctx = obsv.WithTenant(ctx, t.Name)
	// handleQuery installs the per-request tracer; fall back to the
	// process-wide one only when exec is driven without it (tests,
	// embedded use).
	if obsv.TracerFrom(ctx) == nil && s.cfg.Tracer != nil {
		ctx = obsv.WithTracer(ctx, s.cfg.Tracer)
	}
	return t.System().QueryContext(ctx, req.SQL)
}

// countRoute bumps the per-route served counter: every 200 response
// lands in exactly one bucket, so the cavsatd_route_total family sums
// to the queries served. Unexpected values count as "sat" (the
// conservative executor) rather than silently skewing the sum.
func (s *Server) countRoute(route string) {
	switch route {
	case "rewrite":
		s.routeRewrite.Inc()
	case "mixed":
		s.routeMixed.Inc()
	default:
		s.routeSAT.Inc()
	}
}

// writeQueryError maps solve/admission failures onto an HTTP status and
// the typed JSON envelope. Metrics classify the same errors through
// outcomeOf.
func (s *Server) writeQueryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrShed) || errors.Is(err, ErrQueueTimeout):
		retry := s.cfg.RetryAfter
		w.Header().Set("Retry-After", strconv.Itoa(int((retry+time.Second-1)/time.Second)))
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
			Error:        err.Error(),
			Code:         CodeOverloaded,
			RetryAfterMS: retry.Milliseconds(),
		})
	case errors.Is(err, aggcavsat.ErrTimeout) || errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, CodeTimeout, "query deadline expired: %v", err)
	case errors.Is(err, aggcavsat.ErrBudget):
		writeError(w, http.StatusGatewayTimeout, CodeBudget, "solver budget exhausted: %v", err)
	case errors.Is(err, context.Canceled):
		// The client went away; nobody reads this response.
		writeError(w, http.StatusBadRequest, CodeBadRequest, "request canceled")
	default:
		writeError(w, http.StatusBadRequest, CodeBadQuery, "%v", err)
	}
}

// handleInstances serves the tenant registry: GET lists, POST attaches
// {"name": ..., "dir": ...} hot.
func (s *Server) handleInstances(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.tenants.list())
	case http.MethodPost:
		var req struct {
			Name string `json:"name"`
			Dir  string `json:"dir"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "decoding attach request: %v", err)
			return
		}
		if req.Name == "" || req.Dir == "" {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "attach wants both name and dir")
			return
		}
		t, err := s.AttachDir(req.Name, req.Dir, aggcavsat.Options{})
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "attaching %s: %v", req.Name, err)
			return
		}
		writeJSON(w, http.StatusOK, TenantInfo{
			Name: t.Name, Dir: t.Dir, Version: t.Version, Mode: t.Mode,
			Planner: t.Planner, ConstraintFP: t.ConstraintFP,
			Facts: t.Facts, Relations: t.Relations,
			AttachedAt: t.AttachedAt,
		})
	default:
		writeError(w, http.StatusMethodNotAllowed, CodeBadRequest, "method %s not allowed", r.Method)
	}
}

// decodeQueryRequest accepts POST JSON bodies and GET URL parameters.
func decodeQueryRequest(r *http.Request) (*QueryRequest, error) {
	req := &QueryRequest{}
	switch r.Method {
	case http.MethodPost:
		if err := json.NewDecoder(r.Body).Decode(req); err != nil {
			return nil, fmt.Errorf("decoding query request: %w", err)
		}
	case http.MethodGet:
		q := r.URL.Query()
		req.Instance = q.Get("instance")
		req.SQL = q.Get("q")
		req.Label = q.Get("label")
		if v := q.Get("timeout_ms"); v != "" {
			ms, err := strconv.ParseInt(v, 10, 64)
			if err != nil || ms < 0 {
				return nil, fmt.Errorf("bad timeout_ms %q", v)
			}
			req.TimeoutMS = ms
		}
	default:
		return nil, fmt.Errorf("method %s not allowed", r.Method)
	}
	if strings.TrimSpace(req.SQL) == "" {
		return nil, errors.New("empty sql")
	}
	return req, nil
}

// normalizeSQL collapses whitespace so trivially reformatted statements
// share a cache key (the algebraic fingerprint would need a parse; this
// stays ahead of it on the cache hot path).
func normalizeSQL(sql string) string {
	return strings.Join(strings.Fields(sql), " ")
}

// Start listens on addr (":0" picks a free port) and serves Handler on
// a background goroutine until Close.
func Start(addr string, s *Server) (*Running, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", addr, err)
	}
	run := &Running{ln: ln, srv: &http.Server{Handler: s.Handler()}}
	go run.srv.Serve(ln) //nolint:errcheck // ErrServerClosed after Close
	return run, nil
}

// Running is a started listener.
type Running struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the bound address.
func (r *Running) Addr() string { return r.ln.Addr().String() }

// Close shuts the listener down, draining in-flight requests briefly.
func (r *Running) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return r.srv.Shutdown(ctx)
}
