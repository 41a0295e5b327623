package obsv

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Metric names used across the pipeline — a stable public contract,
// mirrored in the Stats view of internal/core and documented in
// README.md's Observability section. The *_ns metrics count wall time in
// nanoseconds (integer counters diff exactly across snapshots); the
// *_seconds metrics are histograms for long-lived registries.
const (
	MetricWitnessNS       = "aggcavsat_witness_ns_total"
	MetricConstraintNS    = "aggcavsat_constraint_ns"
	MetricEncodeNS        = "aggcavsat_encode_ns_total"
	MetricSolveNS         = "aggcavsat_solve_ns_total"
	MetricSATCalls        = "aggcavsat_sat_calls_total"
	MetricMaxSATRuns      = "aggcavsat_maxsat_runs_total"
	MetricCNFVars         = "aggcavsat_cnf_vars_total"
	MetricCNFClauses      = "aggcavsat_cnf_clauses_total"
	MetricCNFVarsMax      = "aggcavsat_cnf_vars_max"
	MetricCNFClausesMax   = "aggcavsat_cnf_clauses_max"
	MetricConsistentSkips = "aggcavsat_consistent_part_skips_total"
	MetricClosedForm      = "aggcavsat_closed_form_components_total"
	MetricWitnesses       = "aggcavsat_witnesses_total" // materialized witnesses
	MetricFolded          = "aggcavsat_folded_assignments_total"
	MetricGroups          = "aggcavsat_groups_total"

	MetricPhaseSecondsPrefix = "aggcavsat_phase_seconds_" // + witness|constraint|encode|solve|rewrite

	// Query-level observability (PR 6). The cache counters record, per
	// call, how often a solve unit was served from the per-component
	// hard-clause memo (Engine.bases); the route/mode gauges describe
	// which code path answered the call (values documented at the
	// recording sites in internal/core); the latency summary surfaces
	// p50/p90/p99/max over whole engine calls.
	MetricBaseHits       = "aggcavsat_base_cache_hits_total"
	MetricBaseMisses     = "aggcavsat_base_cache_misses_total"
	MetricConsCacheHit   = "aggcavsat_constraint_cache_hit"    // gauge 0/1
	MetricVioFastRels    = "aggcavsat_violation_fastpath_rels" // gauge: relations on the key fast path
	MetricVioGenericDCs  = "aggcavsat_violation_generic_dcs"   // gauge: DCs on the generic path
	MetricQuerySeconds   = "aggcavsat_query_seconds"           // summary: whole engine calls
	MetricJournalWritten = "aggcavsat_journal_written_total"   // journal lines persisted
	MetricJournalDropped = "aggcavsat_journal_dropped_total"   // journal lines shed by the bounded writer

	// Planner observability (PR 8). The route counters are one labelled
	// family — a call increments exactly one of them after its route
	// settles (including a run-time fallback), so their sum equals the
	// range-query calls served. MetricRewriteNS accumulates wall time in
	// the SAT-free rewriting executor, the rewrite-route sibling of the
	// witness/encode/solve phase counters.
	MetricRouteRewrite = `aggcavsat_planner_route_total{route="rewrite"}`
	MetricRouteSAT     = `aggcavsat_planner_route_total{route="sat"}`
	MetricRewriteNS    = "aggcavsat_rewrite_ns_total"

	// Request-correlation families (PR 10): labeled by tenant (the
	// serving instance, "none" outside cavsatd), route (the executor that
	// answered), and outcome ("ok" or the anomaly class). The engine
	// observes them per call into the session registry.
	MetricEngineCalls       = "aggcavsat_calls_total"
	MetricEngineCallSeconds = "aggcavsat_call_seconds"
)

// RequestLabels is the shared label schema of the request-correlation
// families: tenant, route, outcome — in this declared order.
var RequestLabels = []string{"tenant", "route", "outcome"}

// DurationBuckets are the default histogram bucket upper bounds for
// phase durations, in seconds (1ms … ~2min, quadrupling).
var DurationBuckets = []float64{0.001, 0.004, 0.016, 0.064, 0.256, 1.024, 4.096, 16.384, 65.536, 131.072}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// SetMax raises the gauge to n if n is larger (lock-free running max).
func (g *Gauge) SetMax(n int64) {
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram in the Prometheus cumulative
// style: bucket i counts observations ≤ Buckets[i], plus an implicit
// +Inf bucket. All operations are lock-free.
type Histogram struct {
	buckets []float64 // sorted upper bounds
	counts  []atomic.Int64
	inf     atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the observation sum
	count   atomic.Int64
}

func newHistogram(buckets []float64) *Histogram {
	bs := sortDedupBounds(buckets)
	return &Histogram{buckets: bs, counts: make([]atomic.Int64, len(bs))}
}

// sortDedupBounds copies, sorts, and deduplicates bucket upper bounds.
// Duplicate bounds (e.g. an SLO latency target that coincides with a
// default bucket) would otherwise emit two _bucket lines with the same
// le label, which Prometheus rejects as a duplicate series.
func sortDedupBounds(buckets []float64) []float64 {
	bs := append([]float64(nil), buckets...)
	sort.Float64s(bs)
	out := bs[:0]
	for i, b := range bs {
		if i == 0 || b != out[len(out)-1] {
			out = append(out, b)
		}
	}
	return out
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	idx := sort.SearchFloat64s(h.buckets, v)
	if idx < len(h.buckets) {
		h.counts[idx].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Buckets []float64 // upper bounds, ascending
	Counts  []int64   // non-cumulative per-bucket counts; len == len(Buckets)
	Inf     int64     // observations above the last bucket
	Count   int64
	Sum     float64
}

// Registry names and owns metrics. The zero value is not usable; call
// NewRegistry. All methods are safe for concurrent use; Counter, Gauge
// and Histogram are get-or-create and panic when one name is reused
// across metric kinds (a programming error).
type Registry struct {
	mu                sync.RWMutex
	counters          map[string]*Counter
	gauges            map[string]*Gauge
	histograms        map[string]*Histogram
	summaries         map[string]*Summary
	labeledCounters   map[string]*LabeledCounter
	labeledHistograms map[string]*LabeledHistogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:          map[string]*Counter{},
		gauges:            map[string]*Gauge{},
		histograms:        map[string]*Histogram{},
		summaries:         map[string]*Summary{},
		labeledCounters:   map[string]*LabeledCounter{},
		labeledHistograms: map[string]*LabeledHistogram{},
	}
}

func (r *Registry) checkFree(name, kind string) {
	_, c := r.counters[name]
	_, g := r.gauges[name]
	_, h := r.histograms[name]
	_, s := r.summaries[name]
	// The bare family name of a labeled family is reserved too: a plain
	// metric `fam` alongside series `fam{...}` would split the family's
	// TYPE header in the exposition. A `fam{...}` series name of the
	// matching kind is allowed — that is how the family's own series are
	// stored.
	fam := metricFamily(name)
	_, lc := r.labeledCounters[fam]
	_, lh := r.labeledHistograms[fam]
	if fam != name { // series name, not a bare family name
		if kind == "counter" {
			lc = false
		}
		if kind == "histogram" {
			lh = false
		}
	}
	if c || g || h || s || lc || lh {
		panic("obsv: metric " + name + " already registered with a different kind than " + kind)
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFree(name, "counter")
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFree(name, "gauge")
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (later calls may pass nil buckets).
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	r.mu.RLock()
	h, ok := r.histograms[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	r.checkFree(name, "histogram")
	if buckets == nil {
		buckets = DurationBuckets
	}
	h = newHistogram(buckets)
	r.histograms[name] = h
	return h
}

// Summary returns the named latency summary, creating it with the given
// exact-reservoir size and interpolation buckets on first use (later
// calls may pass zero values).
func (r *Registry) Summary(name string, maxExact int, buckets []float64) *Summary {
	r.mu.RLock()
	s, ok := r.summaries[name]
	r.mu.RUnlock()
	if ok {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.summaries[name]; ok {
		return s
	}
	r.checkFree(name, "summary")
	s = NewSummary(maxExact, buckets)
	r.summaries[name] = s
	return s
}

// Snapshot is a consistent-enough point-in-time copy of every metric
// (individual values are read atomically; the set is not globally
// synchronized, which is the standard scrape semantics).
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
	Summaries  map[string]SummarySnapshot `json:",omitempty"`
}

// Snapshot copies every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	if len(r.summaries) > 0 {
		s.Summaries = make(map[string]SummarySnapshot, len(r.summaries))
		for name, sm := range r.summaries {
			s.Summaries[name] = sm.Snapshot()
		}
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		hs := HistogramSnapshot{
			Buckets: append([]float64(nil), h.buckets...),
			Counts:  make([]int64, len(h.buckets)),
			Inf:     h.inf.Load(),
			Count:   h.count.Load(),
			Sum:     math.Float64frombits(h.sumBits.Load()),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[name] = hs
	}
	return s
}
