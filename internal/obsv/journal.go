package obsv

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"
)

// JournalVersion is the schema version stamped on every journal line;
// the reader rejects lines from a different schema.
const JournalVersion = 1

// DefaultJournalQueue is the channel depth of the bounded journal
// writer: enough to absorb a burst of sub-millisecond solves, small
// enough that a wedged disk sheds load instead of growing the heap.
const DefaultJournalQueue = 1024

// JournalOptions summarizes, on each journal line, the engine
// configuration that answered the query — the knobs that change which
// code path ran, so a slow line can be attributed without rerunning.
type JournalOptions struct {
	// Algorithm is the configured MaxSAT solver: "rc2" (built in) or
	// "external" (a binary, one WCNF file per run).
	Algorithm string `json:"alg"`
	// Mode is the constraint mode: "keys" or "dc".
	Mode string `json:"mode"`
	// Parallelism is the resolved worker-pool size.
	Parallelism int `json:"parallel"`
	// Planner is the configured planner mode ("auto", "force-sat",
	// "force-rewrite"); empty on lines written before the planner
	// existed.
	Planner string `json:"planner,omitempty"`
}

// JournalEntry is one wide event: everything the system knows about one
// engine call (solve), flattened onto a single JSON line. Every solve
// gets a line, anomalous or not: together with the trace its TraceID
// keys, a failed or timed-out call's line is its post-mortem. It is
// also the call's explain report (Options.Explain, rendered by
// WriteTable), and the replay input format: aggbench -replay can
// re-issue a recorded stream.
type JournalEntry struct {
	Version int       `json:"v"`
	Time    time.Time `json:"time"`

	// Query labels the solve: the SQL text or workload query name when
	// the caller provided one (WithQueryLabel), the engine's op label
	// otherwise. Fingerprint is a stable 64-bit FNV-1a hash of the
	// canonical algebraic query, usable as a cache/grouping key across
	// differently-labelled spellings.
	Query       string `json:"query"`
	Fingerprint string `json:"fingerprint"`
	Op          string `json:"op,omitempty"`

	// TraceID is the W3C trace id of the request that ran this solve
	// (32 lowercase hex digits), stamped when the context carried one —
	// the cross-link key into explain reports, cavsatd responses, and
	// retained traces.
	TraceID string `json:"trace_id,omitempty"`

	Options JournalOptions `json:"options"`

	// Answers is the number of result groups; AnswerDigest is a 64-bit
	// FNV-1a hash over the rendered answers, so two journals can be
	// diffed for answer drift without storing the answers themselves.
	Answers      int    `json:"answers"`
	AnswerDigest string `json:"answer_digest,omitempty"`

	// Route records which executor answered a range query ("rewrite" or
	// "sat"); RouteReason explains a SAT route (the planner mode, or the
	// classifier rejection under force-rewrite). Both are empty on
	// operations the planner does not route (consistent_answers).
	Route       string `json:"route,omitempty"`
	RouteReason string `json:"route_reason,omitempty"`

	TotalMS      float64 `json:"total_ms"`
	RewriteMS    float64 `json:"rewrite_ms,omitempty"`
	WitnessMS    float64 `json:"witness_ms"`
	ConstraintMS float64 `json:"constraint_ms"`
	EncodeMS     float64 `json:"encode_ms"`
	SolveMS      float64 `json:"solve_ms"`

	// Witnesses counts the materialized witnesses; Folded counts the
	// all-safe assignments folded into the consistent part instead.
	Witnesses       int64 `json:"witnesses"`
	Folded          int64 `json:"folded_assignments,omitempty"`
	Groups          int64 `json:"groups,omitempty"`
	SATCalls        int64 `json:"sat_calls"`
	MaxSATRuns      int   `json:"maxsat_runs"`
	Vars            int   `json:"cnf_vars"`
	Clauses         int   `json:"cnf_clauses"`
	MaxVars         int   `json:"cnf_vars_max,omitempty"`
	MaxClauses      int   `json:"cnf_clauses_max,omitempty"`
	ConsistentSkips int   `json:"consistent_skips,omitempty"`
	// ClosedForm counts the components answered by group elimination,
	// with no formula built or solved.
	ClosedForm int `json:"closed_form_components,omitempty"`

	// Per-phase resource accounting (the Stats fields of the same
	// names): heap bytes allocated per phase, the live heap at the last
	// phase boundary, and GC cycles during measured phases.
	WitnessAllocBytes int64 `json:"witness_alloc_bytes,omitempty"`
	EncodeAllocBytes  int64 `json:"encode_alloc_bytes,omitempty"`
	SolveAllocBytes   int64 `json:"solve_alloc_bytes,omitempty"`
	HeapBytes         int64 `json:"heap_bytes,omitempty"`
	GCCycles          int64 `json:"gc_cycles,omitempty"`

	// Cache outcome: whether the constraint context came from a cache.
	// FDPartitions/GenericDCs split the DC set between the FD path — one
	// partition per (relation, left-hand side) of its FD-shaped DCs —
	// and the DCs instantiated generically (DC mode).
	ConstraintCached bool  `json:"constraint_cached"`
	FDPartitions     int64 `json:"fastpath_rels,omitempty"`
	GenericDCs       int64 `json:"generic_dcs,omitempty"`

	// Anomaly is empty on a clean solve, else how the call ended:
	// "timeout", "budget" or "error". Lines written by earlier versions
	// may also carry "slow" and a "flight_bundle" path; the reader
	// accepts them.
	Anomaly string `json:"anomaly,omitempty"`
	Error   string `json:"error,omitempty"`

	// The explain report's own facts, set only under Options.Explain
	// (a line written without it carries none of these keys):
	// ConstraintBuildNS is the build time of a constraint context this
	// call reused (a call that builds it reports constraint_ms instead);
	// Algebra is the rendered algebraic query, which Query replaces
	// with the caller's label; Components is the per-component solve
	// breakdown.
	ConstraintBuildNS int64              `json:"constraint_build_ns,omitempty"`
	Algebra           string             `json:"algebra,omitempty"`
	Components        []ComponentExplain `json:"components,omitempty"`
}

// Journal is a bounded, non-blocking writer of journal lines. Append
// never blocks the solve path: entries go through a fixed-depth channel
// drained by one background goroutine; when the channel is full (disk
// stall, runaway QPS) the entry is dropped and counted instead of
// applying backpressure to queries. The written file is the journal's
// only copy: nothing is retained in memory.
type Journal struct {
	path string
	w    io.Writer
	c    io.Closer // nil when the caller owns the writer

	ch   chan JournalEntry
	done chan struct{}

	written atomic.Int64
	dropped atomic.Int64
}

// NewJournal starts a journal draining into w (the caller keeps
// ownership of w; Close only stops the drain). queue <= 0 means
// DefaultJournalQueue.
func NewJournal(w io.Writer, queue int) *Journal {
	if queue <= 0 {
		queue = DefaultJournalQueue
	}
	j := &Journal{
		w:    w,
		ch:   make(chan JournalEntry, queue),
		done: make(chan struct{}),
	}
	go j.drain()
	return j
}

// OpenJournal opens (appending) or creates the journal file at path and
// starts a journal draining into it. Close flushes and closes the file.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obsv: opening journal: %w", err)
	}
	j := NewJournal(f, 0)
	j.path = path
	j.c = f
	return j, nil
}

// Path returns the journal's file path ("" for writer-backed journals).
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.path
}

// Append enqueues one entry without blocking: if the writer has fallen
// behind and the queue is full, the entry is dropped (counted in
// Dropped) rather than stalling the solve. Nil-receiver-safe, so
// instrumentation points append unconditionally.
func (j *Journal) Append(e JournalEntry) {
	if j == nil {
		return
	}
	e.Version = JournalVersion
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	select {
	case j.ch <- e:
	default:
		j.dropped.Add(1)
	}
}

// drain is the single writer goroutine: one JSON line per entry.
func (j *Journal) drain() {
	defer close(j.done)
	bw := bufio.NewWriter(j.w)
	enc := json.NewEncoder(bw)
	for e := range j.ch {
		if err := enc.Encode(e); err != nil {
			fmt.Fprintln(os.Stderr, "obsv: journal write:", err)
			continue
		}
		j.written.Add(1)
	}
	if err := bw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "obsv: journal flush:", err)
	}
}

// Close stops accepting entries, drains the queue, flushes, and closes
// the underlying file when the journal owns it. Nil-receiver-safe.
// Append after Close panics (the harness closes the journal only after
// the last query finished).
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	close(j.ch)
	<-j.done
	if j.c != nil {
		return j.c.Close()
	}
	return nil
}

// Written returns the number of entries persisted so far.
func (j *Journal) Written() int64 {
	if j == nil {
		return 0
	}
	return j.written.Load()
}

// Dropped returns the number of entries shed because the queue was full.
func (j *Journal) Dropped() int64 {
	if j == nil {
		return 0
	}
	return j.dropped.Load()
}

// WritePrometheus renders the journal's own health counters, appended to
// scrape output after the registry exposition: a growing dropped count
// means the workload outruns the journal disk.
func (j *Journal) WritePrometheus(w io.Writer) error {
	_, err := fmt.Fprintf(w,
		"# TYPE %s counter\n%s %d\n# TYPE %s counter\n%s %d\n",
		MetricJournalWritten, MetricJournalWritten, j.Written(),
		MetricJournalDropped, MetricJournalDropped, j.Dropped())
	return err
}

// JournalReader decodes a journal stream line by line (the journalread
// decoder). Blank lines are skipped; a line from a different schema
// version or malformed JSON is an error carrying the line number.
type JournalReader struct {
	sc   *bufio.Scanner
	line int
}

// NewJournalReader wraps r for streaming decode.
func NewJournalReader(r io.Reader) *JournalReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	return &JournalReader{sc: sc}
}

// Next returns the next entry, or io.EOF at the end of the stream.
func (jr *JournalReader) Next() (*JournalEntry, error) {
	for jr.sc.Scan() {
		jr.line++
		b := jr.sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var e JournalEntry
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, fmt.Errorf("obsv: journal line %d: %w", jr.line, err)
		}
		if e.Version != JournalVersion {
			return nil, fmt.Errorf("obsv: journal line %d: version %d, want %d", jr.line, e.Version, JournalVersion)
		}
		return &e, nil
	}
	if err := jr.sc.Err(); err != nil {
		return nil, fmt.Errorf("obsv: journal read: %w", err)
	}
	return nil, io.EOF
}

// ReadJournal decodes a whole journal stream.
func ReadJournal(r io.Reader) ([]JournalEntry, error) {
	jr := NewJournalReader(r)
	var out []JournalEntry
	for {
		e, err := jr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, *e)
	}
}

// ReadJournalFile decodes the journal at path.
func ReadJournalFile(path string) ([]JournalEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("obsv: opening journal: %w", err)
	}
	defer f.Close()
	return ReadJournal(f)
}

type journalLabelKey struct{}

// WithQueryLabel attaches a human-meaningful query label (SQL text, a
// workload query name) to the context; the engine stamps it on the
// solve's journal line in place of the default op label.
func WithQueryLabel(ctx context.Context, label string) context.Context {
	if label == "" {
		return ctx
	}
	return context.WithValue(ctx, journalLabelKey{}, label)
}

// QueryLabelFrom returns the label installed by WithQueryLabel, or "".
func QueryLabelFrom(ctx context.Context) string {
	s, _ := ctx.Value(journalLabelKey{}).(string)
	return s
}

type tenantKey struct{}

// WithTenant attaches the serving tenant (cavsatd instance name) to the
// context; the engine stamps it on the tenant label of
// aggcavsat_call_seconds so per-tenant latency and error budgets are
// attributable.
func WithTenant(ctx context.Context, tenant string) context.Context {
	if tenant == "" {
		return ctx
	}
	return context.WithValue(ctx, tenantKey{}, tenant)
}

// TenantFrom returns the tenant installed by WithTenant, or "".
func TenantFrom(ctx context.Context) string {
	s, _ := ctx.Value(tenantKey{}).(string)
	return s
}
