package obsv

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

func TestSpanHierarchy(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)

	ctx1, root := StartSpan(ctx, "query")
	if root == nil {
		t.Fatal("StartSpan returned nil span with tracer installed")
	}
	ctx2, child := StartSpan(ctx1, "sql.parse")
	child.End()
	_, child2 := StartSpan(ctx1, "query.range_answers", String("op", "SUM"))
	child2.SetInt("groups", 3)
	child2.End()
	root.End()
	_ = ctx2

	if got := tr.Open(); got != 0 {
		t.Errorf("Open() = %d after ending every span", got)
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("Len = %d, want 3", len(spans))
	}
	if spans[0].parent != -1 {
		t.Errorf("root parent = %d", spans[0].parent)
	}
	if spans[1].parent != spans[0].id || spans[2].parent != spans[0].id {
		t.Errorf("children not parented to root: %d %d", spans[1].parent, spans[2].parent)
	}
	if spans[2].Attrs[0].Str != "SUM" || spans[2].Attrs[1].Int != 3 {
		t.Errorf("attrs = %+v", spans[2].Attrs)
	}
}

func TestTracerFrom(t *testing.T) {
	if TracerFrom(context.Background()) != nil {
		t.Error("TracerFrom on bare context")
	}
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	if TracerFrom(ctx) != tr {
		t.Error("TracerFrom lost the tracer")
	}
	if WithTracer(context.Background(), nil) != context.Background() {
		t.Error("WithTracer(nil) should return ctx unchanged")
	}
}

func TestDisabledSpanIsNil(t *testing.T) {
	ctx, sp := StartSpan(context.Background(), "anything")
	if sp != nil {
		t.Fatal("span without tracer should be nil")
	}
	// Every method must be a no-op on nil.
	sp.End()
	sp.SetInt("k", 1)
	sp.SetStr("k", "v")
	if sp.Duration() != 0 {
		t.Error("nil span duration")
	}
	if ctx != context.Background() {
		t.Error("context must be unchanged when disabled")
	}
}

// TestDisabledSpanAllocs pins the acceptance criterion: the disabled
// tracer hot path is a nil check with zero allocations.
func TestDisabledSpanAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c, sp := StartSpan(ctx, "hot.path")
		sp.SetInt("n", 42)
		sp.End()
		_ = c
	})
	if allocs != 0 {
		t.Errorf("disabled StartSpan allocates %v times per op, want 0", allocs)
	}
}

func BenchmarkDisabledSpan(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "hot.path")
		sp.SetInt("n", int64(i))
		sp.End()
	}
}

func BenchmarkEnabledSpan(b *testing.B) {
	tr := NewTracer()
	tr.MaxSpans = b.N + 10
	ctx := WithTracer(context.Background(), tr)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := StartSpan(ctx, "hot.path")
		sp.End()
	}
}

func TestMaxSpansDrops(t *testing.T) {
	tr := NewTracer()
	tr.MaxSpans = 2
	ctx := WithTracer(context.Background(), tr)
	for i := 0; i < 5; i++ {
		_, sp := StartSpan(ctx, "s")
		sp.End()
	}
	if tr.Len() != 2 || tr.Dropped() != 3 {
		t.Errorf("Len=%d Dropped=%d, want 2/3", tr.Len(), tr.Dropped())
	}
	if tr.Open() != 0 {
		t.Errorf("dropped spans must not leak open count: %d", tr.Open())
	}
}

func TestWriteTree(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	ctx1, root := StartSpan(ctx, "query")
	_, c := StartSpan(ctx1, "cq.witness")
	c.SetInt("witnesses", 7)
	c.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "query ") {
		t.Errorf("missing root:\n%s", out)
	}
	if !strings.Contains(out, "  cq.witness ") || !strings.Contains(out, "witnesses=7") {
		t.Errorf("missing indented child with attr:\n%s", out)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	ctx1, root := StartSpan(ctx, "query")
	_, c := StartSpan(ctx1, "maxsat.solve", String("alg", "rc2"))
	c.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	if len(parsed.TraceEvents) != 2 {
		t.Fatalf("events = %d", len(parsed.TraceEvents))
	}
	for _, ev := range parsed.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("phase = %q", ev.Ph)
		}
	}
	// The child must be contained in the root's [ts, ts+dur] window —
	// that is what makes the spans nest in the viewer.
	rootEv, childEv := parsed.TraceEvents[0], parsed.TraceEvents[1]
	if rootEv.Name != "query" {
		rootEv, childEv = childEv, rootEv
	}
	if childEv.Ts < rootEv.Ts || childEv.Ts+childEv.Dur > rootEv.Ts+rootEv.Dur+1e-3 {
		t.Errorf("child [%f,%f] not nested in root [%f,%f]",
			childEv.Ts, childEv.Ts+childEv.Dur, rootEv.Ts, rootEv.Ts+rootEv.Dur)
	}
	if childEv.Cat != "maxsat" || childEv.Args["alg"] != "rc2" {
		t.Errorf("child cat/args: %q %v", childEv.Cat, childEv.Args)
	}
}
