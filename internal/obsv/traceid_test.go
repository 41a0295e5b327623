package obsv

import (
	"context"
	"strings"
	"testing"
)

func TestNewTraceIDsNonZeroAndDistinct(t *testing.T) {
	seen := map[TraceID]bool{}
	for i := 0; i < 64; i++ {
		id := NewTraceID()
		if id.IsZero() {
			t.Fatal("NewTraceID returned the all-zero id")
		}
		if seen[id] {
			t.Fatalf("NewTraceID repeated %s", id)
		}
		seen[id] = true
	}
	if s := NewSpanID(); s.IsZero() {
		t.Fatal("NewSpanID returned the all-zero id")
	}
}

func TestDeriveSpanIDDeterministicPerIndex(t *testing.T) {
	tr := NewTraceID()
	a, b := deriveSpanID(tr, 0), deriveSpanID(tr, 1)
	if a.IsZero() || b.IsZero() {
		t.Fatal("derived span id is zero")
	}
	if a == b {
		t.Fatal("distinct indices derived the same span id")
	}
	if a != deriveSpanID(tr, 0) {
		t.Fatal("deriveSpanID is not deterministic")
	}
}

func TestTraceparentRoundtrip(t *testing.T) {
	tc := NewTraceContext()
	hdr := tc.Traceparent()
	if len(hdr) != 55 || !strings.HasPrefix(hdr, "00-") {
		t.Fatalf("traceparent %q has the wrong shape", hdr)
	}
	got, err := ParseTraceparent(hdr)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", hdr, err)
	}
	if got != tc {
		t.Fatalf("roundtrip drifted: %+v vs %+v", got, tc)
	}
}

func TestParseTraceparent(t *testing.T) {
	const valid = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	cases := []struct {
		name    string
		in      string
		ok      bool
		sampled bool
	}{
		{"valid sampled", valid, true, true},
		{"valid unsampled", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00", true, false},
		{"future version with suffix", "cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", true, true},
		{"future version with undelimited suffix", "01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01garbage", false, false},
		{"empty", "", false, false},
		{"truncated", valid[:54], false, false},
		{"version 00 with trailing junk", valid + "-extra", false, false},
		{"version ff", "ff" + valid[2:], false, false},
		{"uppercase trace id", "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", false, false},
		{"uppercase span id", "00-4bf92f3577b34da6a3ce929d0e0e4736-00F067AA0BA902B7-01", false, false},
		{"zero trace id", "00-00000000000000000000000000000000-00f067aa0ba902b7-01", false, false},
		{"zero span id", "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", false, false},
		{"non-hex trace id", "00-4bf92f3577b34da6a3ce929d0e0e473z-00f067aa0ba902b7-01", false, false},
		{"misplaced dashes", "004-bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", false, false},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			tc, err := ParseTraceparent(tt.in)
			if tt.ok != (err == nil) {
				t.Fatalf("ParseTraceparent(%q) err = %v, want ok=%v", tt.in, err, tt.ok)
			}
			if err != nil {
				return
			}
			if tc.TraceID.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
				t.Errorf("trace id = %s", tc.TraceID)
			}
			if tc.SpanID.String() != "00f067aa0ba902b7" {
				t.Errorf("span id = %s", tc.SpanID)
			}
			if tc.Sampled != tt.sampled {
				t.Errorf("sampled = %v, want %v", tc.Sampled, tt.sampled)
			}
		})
	}
}

func TestTraceIDFromContextPrecedence(t *testing.T) {
	if got := TraceIDFromContext(context.Background()); got != "" {
		t.Fatalf("bare context trace id = %q, want empty", got)
	}

	// Tracer alone: its trace id wins.
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	if got := TraceIDFromContext(ctx); got != tr.TraceID().String() {
		t.Fatalf("tracer-only trace id = %q, want %s", got, tr.TraceID())
	}

	// An explicit TraceContext outranks the tracer.
	tc := NewTraceContext()
	ctx = WithTraceContext(ctx, tc)
	if got := TraceIDFromContext(ctx); got != tc.TraceID.String() {
		t.Fatalf("trace id = %q, want the explicit context %s", got, tc.TraceID)
	}

	// A zero trace context installs nothing.
	ctx2 := WithTraceContext(context.Background(), TraceContext{})
	if _, ok := TraceContextFrom(ctx2); ok {
		t.Fatal("zero TraceContext was installed")
	}
}

func TestTracerSpanIDsBelongToTrace(t *testing.T) {
	tr := NewTracerWithID(NewTraceID())
	ctx := WithTracer(context.Background(), tr)
	ctx, root := StartSpan(ctx, "root")
	_, child := StartSpan(ctx, "child")
	if root.SpanID().IsZero() || child.SpanID().IsZero() {
		t.Fatal("span ids not assigned")
	}
	if root.SpanID() == child.SpanID() {
		t.Fatal("root and child share a span id")
	}
	// Same indices on the same trace id derive the same span ids.
	if root.SpanID() != deriveSpanID(tr.TraceID(), 0) {
		t.Fatal("root span id does not derive from the trace id")
	}
	child.End()
	root.End()
}

// FuzzParseTraceparent: no header value makes the parser panic, and a
// version-00 value it accepts re-renders with the same trace and parent
// ids (the rendered flags keep only the sampled bit), which parse back
// to the same context.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00")
	f.Add("00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01")
	f.Add("00-00000000000000000000000000000000-00f067aa0ba902b7-01")
	f.Add("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-03-extra")
	f.Add("ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Fuzz(func(t *testing.T, s string) {
		tc, err := ParseTraceparent(s)
		if err != nil || !strings.HasPrefix(s, "00-") {
			return
		}
		out := tc.Traceparent()
		if out[:53] != s[:53] {
			t.Fatalf("%q re-renders as %q", s, out)
		}
		again, err := ParseTraceparent(out)
		if err != nil || again != tc {
			t.Fatalf("%q: re-rendered %q parses to %+v, %v; want %+v", s, out, again, err, tc)
		}
	})
}
