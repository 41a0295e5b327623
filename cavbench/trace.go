package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public entry point of the program. Spans of one statement share
// Trace; Parent links a call to the span that caused it.
type span struct {
	Trace   uint64  `json:"trace"`
	ID      uint64  `json:"id"`
	Parent  uint64  `json:"parent,omitempty"`
	Layer   string  `json:"layer"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run executes the same code with tracing off.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	t     *tracer
	s     span
	start time.Time
}

// newTrace allocates the id shared by the spans of one statement.
func (t *tracer) newTrace() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// every returns the tracer for alternate blocks of four statements of a
// window and nil for the others, so a traced run times traced and
// untraced statements side by side under the same load. Blocks of four
// keep serve's every-fourth-request repeats on both sides.
func (t *tracer) every(i int) *tracer {
	if (i/4)%2 == 1 {
		return nil
	}
	return t
}

// start opens a span in trace under parent (nil for a root span).
func (t *tracer) start(trace uint64, parent *openSpan, layer, name string) *openSpan {
	if t == nil {
		return nil
	}
	o := &openSpan{t: t, start: time.Now()}
	o.s = span{Trace: trace, ID: t.ids.Add(1), Layer: layer, Name: name}
	if parent != nil {
		o.s.Parent = parent.s.ID
	}
	return o
}

func (o *openSpan) end() {
	if o == nil {
		return
	}
	now := time.Now()
	o.s.StartUS = float64(o.start.Sub(o.t.t0).Nanoseconds()) / 1e3
	o.s.DurUS = float64(now.Sub(o.start).Nanoseconds()) / 1e3
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// timed runs fn inside a span and returns its duration; with a nil
// tracer it only measures.
func (t *tracer) timed(trace uint64, parent *openSpan, layer, name string, fn func()) time.Duration {
	sp := t.start(trace, parent, layer, name)
	start := time.Now()
	fn()
	d := time.Since(start)
	sp.end()
	return d
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Layer     string  `json:"layer"`
	Count     int     `json:"count"`
	BusyMS    float64 `json:"busy_ms"`
	SelfMS    float64 `json:"self_ms"`
	SelfShare float64 `json:"self_share"`
}

// layerTable folds the spans into count, busy time and self time per
// layer. A span's self time is its duration minus the time its child
// spans cover (children of one span never overlap here: the benchmark
// issues a statement's layer calls one after another).
func (t *tracer) layerTable() []layerRow {
	childUS := map[uint64]float64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			childUS[s.Parent] += s.DurUS
		}
	}
	rows := map[string]*layerRow{}
	var totalSelf float64
	for _, s := range t.spans {
		r := rows[s.Layer]
		if r == nil {
			r = &layerRow{Layer: s.Layer}
			rows[s.Layer] = r
		}
		self := s.DurUS - childUS[s.ID]
		if self < 0 {
			self = 0
		}
		r.Count++
		r.BusyMS += s.DurUS / 1e3
		r.SelfMS += self / 1e3
		totalSelf += self / 1e3
	}
	var out []layerRow
	for _, r := range rows {
		if totalSelf > 0 {
			r.SelfShare = r.SelfMS / totalSelf
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// export writes the span file (the spans, the per-layer table and the
// per-layer metrics) to path, and prints the table to w together with
// the tracing overhead and the share of facade time the engine's phase
// durations leave unattributed.
func (t *tracer) export(path string, w io.Writer, metrics map[string]float64) error {
	table := t.layerTable()
	fmt.Fprintf(w, "per-layer table (%d spans):\n", len(t.spans))
	fmt.Fprintf(w, "  %-12s %7s %11s %11s %6s\n", "layer", "count", "busy_ms", "self_ms", "self%")
	for _, r := range table {
		fmt.Fprintf(w, "  %-12s %7d %11.2f %11.2f %5.1f%%\n", r.Layer, r.Count, r.BusyMS, r.SelfMS, 100*r.SelfShare)
	}
	fmt.Fprintf(w, "  obsv.trace_overhead = %.4f (traced over untraced statements, per template)\n", metrics["obsv.trace_overhead"])
	fmt.Fprintf(w, "  core.unattributed_share = %.4f (facade time outside the returned phase durations, sequential run)\n",
		metrics["core.unattributed_share"])
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Spans   []span             `json:"spans"`
		Layers  []layerRow         `json:"layers"`
		Metrics map[string]float64 `json:"metrics"`
	}{t.spans, table, metrics})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing span file: %w", err)
	}
	fmt.Fprintf(w, "  spans written to %s\n", path)
	return nil
}
