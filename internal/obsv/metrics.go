package obsv

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Metric names used across the pipeline — a stable public contract,
// mirrored in the Stats view of internal/core and documented in
// README.md's Observability section. Each fact is published once: the
// per-phase wall time is the _sum of its aggcavsat_phase_seconds_<phase>
// histogram, the call count the _count of aggcavsat_call_seconds.
const (
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

	// MetricPhaseSecondsPrefix + witness|constraint|encode|solve|rewrite
	// names one histogram per phase, observed once per call that ran the
	// phase (constraint: once per call that built the constraint
	// context).
	MetricPhaseSecondsPrefix = "aggcavsat_phase_seconds_"

	MetricJournalWritten = "aggcavsat_journal_written_total" // journal lines persisted
	MetricJournalDropped = "aggcavsat_journal_dropped_total" // journal lines shed by the bounded writer

	// MetricEngineCallSeconds is the whole-call latency of the engine,
	// without admission wait or result cache, labeled by tenant (the
	// serving instance, "none" outside cavsatd), route (the executor
	// that answered, "none" for a call that never routed) and outcome
	// ("ok", "timeout", "budget" or "error"). The engine observes it
	// once per call into the session registry, so its _count is the
	// only engine call count, per route.
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
	Count   int64     // the buckets' total, so it never disagrees with them
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
	labeledHistograms map[string]*LabeledHistogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:          map[string]*Counter{},
		gauges:            map[string]*Gauge{},
		histograms:        map[string]*Histogram{},
		labeledHistograms: map[string]*LabeledHistogram{},
	}
}

func (r *Registry) checkFree(name, kind string) {
	_, c := r.counters[name]
	_, g := r.gauges[name]
	_, h := r.histograms[name]
	// The bare family name of a labeled family is reserved too: a plain
	// metric `fam` alongside series `fam{...}` would split the family's
	// TYPE header in the exposition. A `fam{...}` histogram is how the
	// family's own series are stored.
	fam := metricFamily(name)
	_, lh := r.labeledHistograms[fam]
	if fam != name && kind == "histogram" {
		lh = false
	}
	if c || g || h || lh {
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

// Snapshot is a consistent-enough point-in-time copy of every metric
// (individual values are read atomically; the set is not globally
// synchronized, which is the standard scrape semantics).
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
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
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

func (h *Histogram) snapshot() HistogramSnapshot {
	hs := HistogramSnapshot{
		Buckets: append([]float64(nil), h.buckets...),
		Counts:  make([]int64, len(h.buckets)),
		Inf:     h.inf.Load(),
		Sum:     math.Float64frombits(h.sumBits.Load()),
	}
	hs.Count = hs.Inf
	for i := range h.counts {
		hs.Counts[i] = h.counts[i].Load()
		hs.Count += hs.Counts[i]
	}
	return hs
}
