// Package obsv is the stdlib-only observability layer of the system:
// a hierarchical span tracer propagated through context.Context, a
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms) with a snapshot API and Prometheus-style text exposition,
// and the shared vocabulary of span and metric names used across the
// pipeline.
//
// The paper's entire evaluation is an observability exercise — the
// encode/solve time splits of Figures 1 and 9, the CNF sizes of
// Table III, the SAT-call counts of Figures 7 and 8 — so the
// instrumentation points mirror exactly those measurements: parse →
// witness evaluation → constraint grouping → CNF encoding → MaxSAT
// iterations → answer extraction.
//
// # Disabled-path cost
//
// Tracing is off unless a *Tracer is installed in the context with
// WithTracer. Every tracer entry point is nil-safe: StartSpan on a
// context without a tracer returns the context unchanged and a nil
// *Span, and all *Span methods are no-ops on a nil receiver. The
// disabled hot path is a single context lookup with zero allocations
// (asserted by TestDisabledSpanAllocs and BenchmarkDisabledSpan).
//
// # Span vocabulary
//
// Span names are a stable public contract (dashboards and trace tooling
// key on them):
//
//	query                    one System.Query call (root)
//	sql.parse                SQL parsing and translation
//	query.range_answers      one Engine.RangeAnswersContext call
//	query.consistent_answers one Engine.ConsistentAnswersContext call
//	cq.witness               witness-bag evaluation (attr: witnesses)
//	core.constraints         key-equal groups / minimal+near violations
//	core.consistent_groups   Algorithm 2 group filtering
//	core.group               per-group aggregate range (attr: witnesses)
//	core.encode              clause construction for one component
//	core.minmax_probes       iterative SAT probes for MIN/MAX (attr: probes)
//	maxsat.solve             one WPMaxSAT instance (attrs: alg, sat_calls)
//	maxsat.external          one external-binary WPMaxSAT run
//	sat.solve                one SAT call inside MaxSAT (attrs: alg, result)
package obsv

import (
	"context"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Exactly one of Str or Int
// is meaningful, selected by IsInt; keeping both inline (instead of an
// interface) lets attribute setting avoid boxing allocations.
type Attr struct {
	Key   string
	Str   string
	Int   int64
	IsInt bool
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Str: value} }

// Int64 builds an integer attribute.
func Int64(key string, value int64) Attr { return Attr{Key: key, Int: value, IsInt: true} }

// Span is one timed operation in a trace. The zero of the API is a nil
// *Span: every method is a no-op on it, so instrumentation points never
// need to test whether tracing is enabled.
type Span struct {
	Name  string
	Start time.Time
	Attrs []Attr

	end time.Time

	id     int32 // index into the tracer's span slice
	parent int32 // parent span id, -1 for roots
	spanID SpanID
	tracer *Tracer
	done   bool
}

// SpanID returns the span's 64-bit W3C span id (zero on a nil span).
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.spanID
}

// Tracer collects spans. It is safe for concurrent use. Spans beyond
// MaxSpans are counted in Dropped() instead of retained, bounding
// memory on traces with very many SAT calls.
type Tracer struct {
	mu      sync.Mutex
	spans   []*Span
	open    int
	dropped int64
	traceID TraceID

	// MaxSpans bounds the number of retained spans (default 1<<20).
	// Mutate only before tracing starts.
	MaxSpans int
}

// NewTracer creates an empty tracer with a fresh random trace id.
func NewTracer() *Tracer {
	return NewTracerWithID(NewTraceID())
}

// NewTracerWithID creates an empty tracer carrying the given trace id —
// the per-request constructor when the caller supplied a traceparent. A
// zero id is replaced with a fresh random one.
func NewTracerWithID(id TraceID) *Tracer {
	if id.IsZero() {
		id = NewTraceID()
	}
	return &Tracer{MaxSpans: 1 << 20, traceID: id}
}

// TraceID returns the tracer's 128-bit trace id. Every span started on
// this tracer belongs to this trace.
func (t *Tracer) TraceID() TraceID {
	if t == nil {
		return TraceID{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.traceID
}

// SetTraceID rebinds the tracer to a trace id (ignored when zero).
// Intended for reuse of a long-lived tracer before tracing starts;
// already-recorded spans keep their derived span ids.
func (t *Tracer) SetTraceID(id TraceID) {
	if t == nil || id.IsZero() {
		return
	}
	t.mu.Lock()
	t.traceID = id
	t.mu.Unlock()
}

type ctxKey struct{}

// spanCtx is the single context payload: the tracer plus the innermost
// open span (nil at the root), so StartSpan does one context lookup.
type spanCtx struct {
	tracer *Tracer
	span   *Span
}

// WithTracer installs the tracer in the context. A nil tracer returns
// the context unchanged (tracing stays disabled).
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, &spanCtx{tracer: t})
}

// TracerFrom returns the tracer installed in the context, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	if sc, ok := ctx.Value(ctxKey{}).(*spanCtx); ok {
		return sc.tracer
	}
	return nil
}

// StartSpan opens a span named name as a child of the context's current
// span. With no tracer installed it returns (ctx, nil) without
// allocating; otherwise the returned context carries the new span so
// nested StartSpan calls build the hierarchy.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	sc, ok := ctx.Value(ctxKey{}).(*spanCtx)
	if !ok || sc.tracer == nil {
		return ctx, nil
	}
	sp := sc.tracer.start(name, sc.span, attrs)
	if sp == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, ctxKey{}, &spanCtx{tracer: sc.tracer, span: sp}), sp
}

func (t *Tracer) start(name string, parent *Span, attrs []Attr) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.MaxSpans {
		t.dropped++
		return nil
	}
	pid := int32(-1)
	if parent != nil {
		pid = parent.id
	}
	id := int32(len(t.spans))
	sp := &Span{
		Name:   name,
		Start:  time.Now(),
		Attrs:  attrs,
		id:     id,
		parent: pid,
		spanID: deriveSpanID(t.traceID, id),
		tracer: t,
	}
	t.spans = append(t.spans, sp)
	t.open++
	return sp
}

// Absorb moves every span of src into t, preserving src's parent/child
// structure (absorbed roots stay roots in t). It is the tail-retention
// hand-off: a per-request tracer records in isolation, then the request
// end absorbs it into the process-global tracer so /debug/trace keeps
// showing recent activity. Spans beyond t's MaxSpans are dropped
// all-or-nothing (counted in Dropped) so a partially-absorbed trace
// never leaves dangling parent references. src must be quiescent (its
// request finished); it is left unchanged and must not be reused.
func (t *Tracer) Absorb(src *Tracer) {
	if t == nil || src == nil || t == src {
		return
	}
	src.mu.Lock()
	spans := make([]*Span, len(src.spans))
	copy(spans, src.spans)
	srcDropped := src.dropped
	src.mu.Unlock()

	t.mu.Lock()
	defer t.mu.Unlock()
	t.dropped += srcDropped
	if len(t.spans)+len(spans) > t.MaxSpans {
		t.dropped += int64(len(spans))
		return
	}
	base := int32(len(t.spans))
	for _, sp := range spans {
		cp := *sp
		cp.id += base
		if cp.parent >= 0 {
			cp.parent += base
		}
		cp.tracer = t
		t.spans = append(t.spans, &cp)
		if !cp.done {
			t.open++
		}
	}
}

// End closes the span. Safe on a nil receiver and idempotent. Span
// fields change under the tracer's lock, so a live scrape (Spans) never
// reads a half-written span.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	t := s.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.done {
		return
	}
	s.done = true
	s.end = end
	t.open--
}

// SetInt attaches an integer attribute. Safe on a nil receiver; the
// typed signature avoids interface boxing on the disabled path.
func (s *Span) SetInt(key string, value int64) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	s.Attrs = append(s.Attrs, Int64(key, value))
	s.tracer.mu.Unlock()
}

// SetStr attaches a string attribute. Safe on a nil receiver.
func (s *Span) SetStr(key, value string) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	s.Attrs = append(s.Attrs, String(key, value))
	s.tracer.mu.Unlock()
}

// Duration returns the span's wall time (0 if still open).
func (s *Span) Duration() time.Duration {
	if s == nil || !s.done {
		return 0
	}
	return s.end.Sub(s.Start)
}

// Open returns the number of spans started but not yet ended — 0 on a
// well-formed finished trace (the balanced open/close invariant tests
// assert on this).
func (t *Tracer) Open() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.open
}

// Len returns the number of retained spans.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped returns the number of spans discarded because MaxSpans was
// reached.
func (t *Tracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Spans returns a snapshot of the retained spans in start order: copies
// taken under the tracer's lock, so still-running instrumentation can
// end spans and attach attributes while the snapshot is read.
func (t *Tracer) Spans() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Span, len(t.spans))
	for i, sp := range t.spans {
		cp := *sp
		out[i] = &cp
	}
	return out
}
