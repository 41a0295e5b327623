// Package server implements cavsatd's HTTP/JSON query service: a
// multi-tenant instance registry over aggcavsat.System, admission
// control with bounded in-flight solves and typed load shedding, and a
// result cache keyed by (query fingerprint, instance version) with
// singleflight coalescing of identical concurrent queries. The debug
// plane (/metrics, /healthz, /debug/trace, pprof) mounts into the same
// mux, so one process serves both queries and its own observability.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"

	"aggcavsat"
	"aggcavsat/internal/core"
	"aggcavsat/internal/db"
)

// QueryRequest is the body of POST /query (GET /query accepts the same
// fields as URL parameters: instance, q, label, timeout_ms).
type QueryRequest struct {
	// Instance names the tenant instance to query. Empty selects the
	// server's sole instance when exactly one is attached.
	Instance string `json:"instance,omitempty"`
	// SQL is the aggregation statement.
	SQL string `json:"sql"`
	// Label, when set, labels the query in journal lines and traces
	// (e.g. a workload query name); the journal entry is stamped
	// "<instance>/<label>". Defaults to the SQL text.
	Label string `json:"label,omitempty"`
	// TimeoutMS bounds this request's wall clock; 0 uses the server
	// default. The deadline propagates through QueryContext into the
	// solver's cooperative interrupts.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// RangeJSON is one range consistent answer interval on the wire. Null
// endpoints are JSON null — the documented token for "no consistent
// value in this direction" (see aggcavsat.FormatRange for the text
// rendering); Text carries the human-readable form.
type RangeJSON struct {
	GLB  any    `json:"glb"`
	LUB  any    `json:"lub"`
	Text string `json:"text"`
	// FromConsistentPart marks intervals derived without any MaxSAT
	// instance (the low-selectivity shortcut).
	FromConsistentPart bool `json:"from_consistent_part,omitempty"`
	// EmptyPossible (MIN/MAX) marks groups some repair leaves empty.
	EmptyPossible bool `json:"empty_possible,omitempty"`
}

// RowJSON is one result group: the grouping key then one range per
// aggregate, in SELECT order.
type RowJSON struct {
	Key    []any       `json:"key"`
	Ranges []RangeJSON `json:"ranges"`
}

// QueryResponse is the result of /query.
type QueryResponse struct {
	Instance string `json:"instance"`
	// Version is the instance version the answer was computed against
	// (part of the result-cache key; bumped on every attach).
	Version uint64    `json:"version"`
	Columns []string  `json:"columns"`
	Rows    []RowJSON `json:"rows"`
	// PartialGroups counts groups dropped because some aggregate had no
	// consistent answer for them (multi-aggregate statements only).
	PartialGroups int `json:"partial_groups,omitempty"`
	// Digest is a 64-bit FNV-1a fingerprint of Columns+Rows; two
	// responses with equal digests carry identical answers, so replay
	// clients can detect answer drift without shipping rows around.
	Digest string `json:"digest"`
	// Cached reports that the answer came from the result cache without
	// touching the engine. A request that joined an identical in-flight
	// solve is not cached: it carries that solve's route.
	Cached bool `json:"cached"`
	// TraceID is this request's W3C trace id (32 lowercase hex digits):
	// the caller's traceparent trace id when one was sent, otherwise
	// server-minted. It keys the journal line and
	// /debug/trace?trace=<id> when the trace was retained. The same id
	// travels in the Traceparent response header.
	TraceID string `json:"trace_id,omitempty"`
	// Route is the executor that computed the answer: "rewrite" (the
	// ConQuer-style rewriting, on a force-rewrite tenant) or "sat" (the
	// solver route). Cached answers keep the route that originally
	// computed them.
	Route string `json:"route,omitempty"`
	// ElapsedMS is the server-side latency of this request, queueing
	// included.
	ElapsedMS float64 `json:"elapsed_ms"`
	// SolveMS/SATCalls summarize the engine work (zero on cache hits).
	SolveMS  float64 `json:"solve_ms,omitempty"`
	SATCalls int64   `json:"sat_calls,omitempty"`
}

// Error codes of ErrorResponse.Code.
const (
	CodeOverloaded      = "overloaded"       // admission queue full or queue wait expired (HTTP 429)
	CodeTimeout         = "timeout"          // per-request deadline expired mid-solve (HTTP 504)
	CodeBudget          = "budget"           // solver conflict budget exhausted (HTTP 504)
	CodeBadRequest      = "bad_request"      // malformed body or parameters (HTTP 400)
	CodeBadQuery        = "bad_query"        // SQL failed to parse/validate (HTTP 400)
	CodeUnknownInstance = "unknown_instance" // no such tenant (HTTP 404)
	CodeInternal        = "internal"         // anything else (HTTP 500)
)

// ErrorResponse is the typed JSON error envelope every non-200 carries.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
	// RetryAfterMS accompanies CodeOverloaded (the Retry-After header
	// carries the same hint in whole seconds).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// BuildResponse converts a facade result into the wire shape and stamps
// its digest. Shared by the serving path and by replay clients that
// re-execute queries in-process to verify a server's answers.
func BuildResponse(res *aggcavsat.Result) *QueryResponse {
	qr := &QueryResponse{
		Columns:       res.Columns,
		Rows:          make([]RowJSON, len(res.Rows)),
		PartialGroups: res.PartialGroups,
		Route:         res.Route,
		SolveMS:       float64(res.Stats.SolveTime.Microseconds()) / 1000,
		SATCalls:      res.Stats.SATCalls,
	}
	if qr.Columns == nil {
		qr.Columns = []string{}
	}
	for i, row := range res.Rows {
		rj := RowJSON{Key: make([]any, len(row.Key)), Ranges: make([]RangeJSON, len(row.Ranges))}
		for j, v := range row.Key {
			rj.Key[j] = valueJSON(v)
		}
		for j, rng := range row.Ranges {
			rj.Ranges[j] = RangeJSON{
				GLB:                valueJSON(rng.GLB),
				LUB:                valueJSON(rng.LUB),
				Text:               aggcavsat.FormatRange(rng),
				FromConsistentPart: rng.FromConsistentPart,
				EmptyPossible:      rng.EmptyPossible,
			}
		}
		qr.Rows[i] = rj
	}
	qr.Digest = digest(qr.Columns, qr.Rows)
	return qr
}

// valueJSON maps a db.Value onto its native JSON representation.
func valueJSON(v db.Value) any {
	switch v.Kind() {
	case db.KindInt:
		return v.AsInt()
	case db.KindFloat:
		return v.AsFloat()
	case db.KindString:
		return v.AsString()
	default:
		return nil
	}
}

// digest fingerprints the canonical JSON encoding of the answer shape.
// Marshaling is deterministic (ordered slices, no maps), so equal
// answers produce equal digests across processes.
func digest(columns []string, rows []RowJSON) string {
	b, err := json.Marshal(struct {
		Columns []string  `json:"c"`
		Rows    []RowJSON `json:"r"`
	}{columns, rows})
	if err != nil {
		// Only unmarshalable values could land here, and the shape is
		// closed under JSON-native types.
		return "unmarshalable"
	}
	return core.Fingerprint64(string(b))
}

// writeJSON encodes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError emits the typed error envelope.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...), Code: code})
}
