package obsv

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"sync/atomic"
)

// fallbackIDCounter feeds id generation if crypto/rand ever fails (it
// does not on supported platforms); ids stay non-zero and distinct.
var fallbackIDCounter atomic.Int64

// TraceID is a W3C Trace Context 128-bit trace identifier. The zero
// value is invalid (the spec reserves the all-zero id as "absent").
type TraceID [16]byte

// SpanID is a W3C Trace Context 64-bit span identifier. The zero value
// is invalid.
type SpanID [8]byte

// IsZero reports whether the trace id is the invalid all-zero id.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the trace id as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the span id is the invalid all-zero id.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String renders the span id as 16 lowercase hex digits.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// NewTraceID draws a random non-zero 128-bit trace id.
func NewTraceID() TraceID {
	var id TraceID
	for {
		if _, err := rand.Read(id[:]); err != nil {
			// crypto/rand never fails on supported platforms; fall back
			// to a counter-derived id rather than panicking in serving
			// paths.
			binary.BigEndian.PutUint64(id[8:], uint64(fallbackIDCounter.Add(1)))
		}
		if !id.IsZero() {
			return id
		}
	}
}

// NewSpanID draws a random non-zero 64-bit span id.
func NewSpanID() SpanID {
	var id SpanID
	for {
		if _, err := rand.Read(id[:]); err != nil {
			binary.BigEndian.PutUint64(id[:], uint64(fallbackIDCounter.Add(1)))
		}
		if !id.IsZero() {
			return id
		}
	}
}

// deriveSpanID computes a deterministic non-zero span id from a trace id
// and a per-trace span index (FNV-1a over both). Deterministic ids keep
// span allocation on the hot path free of crypto/rand syscalls while
// staying unique within a trace.
func deriveSpanID(trace TraceID, index int32) SpanID {
	h := fnv.New64a()
	h.Write(trace[:])
	var idx [4]byte
	binary.BigEndian.PutUint32(idx[:], uint32(index))
	h.Write(idx[:])
	var id SpanID
	binary.BigEndian.PutUint64(id[:], h.Sum64())
	if id.IsZero() {
		id[7] = 1
	}
	return id
}

// TraceContext is the propagated request identity: the trace id shared
// by every span and artifact of one request, the caller-side span id
// (the parent of the first local span), and the W3C sampled flag.
type TraceContext struct {
	TraceID TraceID
	SpanID  SpanID
	Sampled bool
}

// NewTraceContext mints a fresh sampled trace context with random ids.
func NewTraceContext() TraceContext {
	return TraceContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}
}

// Traceparent renders the context as a W3C traceparent header value:
// version 00, 32 hex trace-id digits, 16 hex span-id digits, and the
// flags byte (01 when sampled).
func (tc TraceContext) Traceparent() string {
	flags := byte(0)
	if tc.Sampled {
		flags = 1
	}
	return fmt.Sprintf("00-%s-%s-%02x", tc.TraceID, tc.SpanID, flags)
}

// ParseTraceparent parses a W3C traceparent header value. Unknown
// versions are accepted if they carry the version-00 prefix shape
// (per spec, forward compatibility); all-zero trace or span ids and
// malformed fields are errors.
func ParseTraceparent(s string) (TraceContext, error) {
	var tc TraceContext
	// version(2) - traceid(32) - spanid(16) - flags(2)
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return tc, fmt.Errorf("obsv: malformed traceparent %q", s)
	}
	ver := s[:2]
	if !isHex(ver) || ver == "ff" {
		return tc, fmt.Errorf("obsv: bad traceparent version %q", ver)
	}
	if ver == "00" && len(s) != 55 {
		return tc, fmt.Errorf("obsv: malformed traceparent %q", s)
	}
	// Future versions may append fields, but the spec requires a '-'
	// delimiter before any trailing data after the flags field.
	if ver != "00" && len(s) > 55 && s[55] != '-' {
		return tc, fmt.Errorf("obsv: malformed traceparent %q", s)
	}
	if _, err := hex.Decode(tc.TraceID[:], []byte(s[3:35])); err != nil {
		return tc, fmt.Errorf("obsv: bad traceparent trace-id: %w", err)
	}
	if hasUpper(s[3:35]) {
		return tc, fmt.Errorf("obsv: traceparent trace-id must be lowercase hex")
	}
	if tc.TraceID.IsZero() {
		return tc, fmt.Errorf("obsv: traceparent trace-id is all zero")
	}
	if _, err := hex.Decode(tc.SpanID[:], []byte(s[36:52])); err != nil {
		return tc, fmt.Errorf("obsv: bad traceparent parent-id: %w", err)
	}
	if hasUpper(s[36:52]) {
		return tc, fmt.Errorf("obsv: traceparent parent-id must be lowercase hex")
	}
	if tc.SpanID.IsZero() {
		return tc, fmt.Errorf("obsv: traceparent parent-id is all zero")
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(s[53:55])); err != nil {
		return tc, fmt.Errorf("obsv: bad traceparent flags: %w", err)
	}
	tc.Sampled = flags[0]&1 == 1
	return tc, nil
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func hasUpper(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 'A' && s[i] <= 'F' {
			return true
		}
	}
	return false
}

type traceCtxKey struct{}

// WithTraceContext installs the request's trace context in the context.
// A zero trace id returns the context unchanged.
func WithTraceContext(ctx context.Context, tc TraceContext) context.Context {
	if tc.TraceID.IsZero() {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceContextFrom returns the trace context installed by
// WithTraceContext and whether one was present.
func TraceContextFrom(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc, ok
}

// TraceIDFromContext resolves the effective trace id of the context: an
// explicit TraceContext wins, else the installed tracer's trace id, else
// "". Artifact writers (journal, explain) use this one
// lookup to stamp their lines.
func TraceIDFromContext(ctx context.Context) string {
	if tc, ok := TraceContextFrom(ctx); ok {
		return tc.TraceID.String()
	}
	if t := TracerFrom(ctx); t != nil {
		if id := t.TraceID(); !id.IsZero() {
			return id.String()
		}
	}
	return ""
}
