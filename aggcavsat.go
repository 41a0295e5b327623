// Package aggcavsat computes the range consistent answers of SQL
// aggregation queries (COUNT(*), COUNT, SUM, MIN, MAX, with or without
// GROUP BY and DISTINCT) over inconsistent relational databases, by
// reduction to Weighted Partial MaxSAT — a from-scratch Go
// implementation of the AggCAvSAT system (Dixit & Kolaitis, ICDE 2022).
//
// A database is a set of facts over a schema with integrity constraints:
// either one key per relation, or an arbitrary set of denial
// constraints. When the data violates the constraints, a *repair* is a
// maximal consistent subset of the facts. The range consistent answer of
// an aggregation query is the tightest interval [glb, lub] containing
// the query's value over every repair; for grouped queries, a group is
// reported only if it appears in every repair.
//
// Basic use:
//
//	schema := aggcavsat.NewSchema()
//	// … declare relations, load facts …
//	sys, err := aggcavsat.Open(instance, aggcavsat.Options{})
//	res, err := sys.Query(`SELECT CITY, SUM(BAL) FROM Accounts GROUP BY CITY`)
//	for _, row := range res.Rows {
//	    fmt.Println(row.Key, row.Ranges) // e.g. [LA] [[900, 2200]]
//	}
//
// The heavy lifting lives in the internal packages: internal/sat (CDCL
// solver), internal/maxsat (core-guided and linear WPMaxSAT),
// internal/cq (conjunctive-query evaluation and witness bags),
// internal/core (the paper's reductions), internal/sqlparse (the SQL
// front end). This package is the stable façade over them.
package aggcavsat

import (
	"context"
	"fmt"
	"sort"
	"time"

	"aggcavsat/internal/constraints"
	"aggcavsat/internal/core"
	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
	"aggcavsat/internal/maxsat"
	"aggcavsat/internal/obsv"
	"aggcavsat/internal/planner"
	"aggcavsat/internal/sqlparse"
)

// Re-exported building blocks, so most programs only import this
// package.
type (
	// Schema declares relations and their key constraints.
	Schema = db.Schema
	// RelationSchema describes one relation.
	RelationSchema = db.RelationSchema
	// Attribute is one column.
	Attribute = db.Attribute
	// Instance is a (possibly inconsistent) set of facts.
	Instance = db.Instance
	// Tuple is one row of values.
	Tuple = db.Tuple
	// Value is a dynamically typed scalar.
	Value = db.Value
	// DenialConstraint forbids a pattern of co-occurring tuples.
	DenialConstraint = constraints.DC
	// AggQuery is the algebraic form of an aggregation query.
	AggQuery = cq.AggQuery
	// UCQ is a union of conjunctive queries.
	UCQ = cq.UCQ
	// Range is a range consistent answer interval.
	Range = core.Range
	// Stats instruments a computation (encode/solve split, CNF sizes,
	// SAT calls). It is taken once at the end of each engine call from
	// the call's one typed record, which also feeds the journal line,
	// the flight bundle and the session metrics.
	Stats = core.Stats
	// Tracer records hierarchical spans; install one on a context with
	// WithTracer and pass the context to QueryContext.
	Tracer = obsv.Tracer
	// SolverProgress is one progress report from the MaxSAT solver.
	SolverProgress = maxsat.ProgressInfo
	// FlightBundle is the self-contained anomaly dump delivered to
	// Options.OnAnomaly: the call's journal entry (identity, error,
	// timings and counters), the flight-recorder event ring, and the
	// resource delta of the solve.
	FlightBundle = obsv.Bundle
	// Explain is the per-solve report assembled under Options.Explain:
	// the code paths taken (mode, front end, solver route), cache
	// outcomes, and the per-component CNF/solve breakdown. Its Stats
	// field is the engine call's Stats value, so the two views reconcile
	// exactly: Result.Stats is the Add of the per-aggregate Stats.
	Explain = core.Explain
	// Journal is the bounded, non-blocking wide-event writer: install
	// one via Options.Journal and every engine call appends one JSON
	// line (obsv.OpenJournal / obsv.NewJournal construct it).
	Journal = obsv.Journal
	// JournalEntry is one decoded journal line.
	JournalEntry = obsv.JournalEntry
	// Snapshot is an mmap-backed columnar database file handle; its
	// Instance is frozen and reads straight out of the mapping.
	Snapshot = db.Snapshot
)

// OpenJournal opens (appending) a query journal at path.
func OpenJournal(path string) (*Journal, error) { return obsv.OpenJournal(path) }

// ReadJournalFile decodes every entry of a journal file.
func ReadJournalFile(path string) ([]JournalEntry, error) { return obsv.ReadJournalFile(path) }

// Typed failure modes, re-exported for errors.Is matching:
// ErrTimeout reports a cancelled or expired context (Options.Timeout or
// a caller deadline); ErrBudget reports an exhausted solver budget;
// ErrOverflow reports a SUM whose range computation leaves the int64
// range.
var (
	ErrTimeout  = core.ErrTimeout
	ErrBudget   = core.ErrBudget
	ErrOverflow = core.ErrOverflow
)

// NewTracer creates an empty span tracer.
func NewTracer() *Tracer { return obsv.NewTracer() }

// WithTracer installs a tracer on a context; every span recorded while
// answering a query started under that context nests below the caller.
func WithTracer(ctx context.Context, tr *Tracer) context.Context {
	return obsv.WithTracer(ctx, tr)
}

// Value constructors and kinds.
var (
	Null  = db.Null
	Int   = db.Int
	Float = db.Float
	Str   = db.Str
)

// Kind constants for attribute declarations.
const (
	KindInt    = db.KindInt
	KindFloat  = db.KindFloat
	KindString = db.KindString
)

// NewSchema creates an empty schema.
func NewSchema() *Schema { return db.NewSchema() }

// NewInstance creates an empty instance over the schema.
func NewInstance(s *Schema) *Instance { return db.NewInstance(s) }

// LoadDir loads an instance from a directory of <relation>.csv files.
func LoadDir(s *Schema, dir string) (*Instance, error) { return db.LoadDir(s, dir) }

// OpenDir loads a data directory like LoadDir, but maps a columnar
// snapshot (snapshot.bin, written by datagen -snapshot) zero-copy when
// one is present instead of parsing CSV. The Snapshot is non-nil
// exactly when the snapshot path was taken; Close it after use.
func OpenDir(s *Schema, dir string) (*Instance, *Snapshot, error) { return db.OpenDir(s, dir) }

// FD builds denial constraints for the functional dependency lhs → rhs
// on the relation.
func FD(rs *RelationSchema, lhs []string, rhs ...string) ([]DenialConstraint, error) {
	return constraints.FD(rs, lhs, rhs...)
}

// PlannerMode selects the query planner's routing policy between the
// WPMaxSAT reduction and the SAT-free rewriting fast path.
type PlannerMode = planner.Mode

// Planner routing policies.
const (
	// PlannerForceSAT routes every query through the WPMaxSAT reduction
	// (the pre-planner behavior; the zero value).
	PlannerForceSAT = planner.ModeSAT
	// PlannerAuto routes rewritable queries through the compiled
	// ConQuer-style rewriting and everything else (plus run-time
	// rejections) through the solver. Answers are identical either way.
	PlannerAuto = planner.ModeAuto
	// PlannerForceRewrite requires the rewriting: non-rewritable queries
	// fail with planner.ErrRewriteUnavailable instead of falling back.
	PlannerForceRewrite = planner.ModeRewrite
)

// ParsePlannerMode parses a planner mode name ("auto", "force-sat",
// "force-rewrite"; "sat" and "rewrite" are accepted shorthands).
func ParsePlannerMode(s string) (PlannerMode, error) { return planner.ParseMode(s) }

// Options configures a System.
type Options struct {
	// DenialConstraints switches the system from per-relation key
	// constraints (the default, taken from the schema) to an explicit
	// denial-constraint set (Reduction V.1).
	DenialConstraints []DenialConstraint
	// ExternalSolverPath, when non-empty, selects an external
	// MaxHS-compatible MaxSAT binary in place of the built-in MaxHS
	// (which degrades to core-guided RC2 search on its own when an exact
	// hitting-set search exhausts its node budget).
	ExternalSolverPath string
	// Parallelism bounds the worker pool that solves independent
	// groups/components concurrently; 0 means GOMAXPROCS, 1 forces
	// sequential solving. Answers are identical at every setting.
	Parallelism int
	// Timeout, when positive, bounds the wall-clock time of every query;
	// on expiry the running SAT searches are interrupted and the call
	// returns an error matching ErrTimeout. A deadline on the context
	// passed to QueryContext has the same effect.
	Timeout time.Duration
	// Progress, when non-nil, receives periodic solver progress reports
	// (every ProgressEvery conflicts, plus bound-change milestones).
	Progress func(SolverProgress)
	// ProgressEvery is the conflict interval between periodic reports;
	// 0 means the solver default.
	ProgressEvery int64
	// Metrics, when non-nil, accumulates every engine call into a
	// session-wide registry (obsv Prometheus exposition) once, at the
	// end of the call.
	Metrics *obsv.Registry
	// SlowQuery, when positive, marks any query slower than this as an
	// anomaly: its flight-recorder bundle is delivered to OnAnomaly even
	// though the query succeeded.
	SlowQuery time.Duration
	// OnAnomaly, when non-nil, enables the per-query flight recorder and
	// receives a dump bundle whenever a query times out, exhausts its
	// budget, fails, or exceeds SlowQuery. Called synchronously at the
	// end of the query; obsv.DumpDir builds a ready-made file sink.
	OnAnomaly func(*FlightBundle)
	// Explain attaches a per-solve Explain report (code paths, cache
	// outcomes, per-component breakdown) to every query result.
	Explain bool
	// Journal, when non-nil, receives one wide-event JSON line per
	// engine call. Appends never block a solve: the journal sheds lines
	// when its writer lags (and counts the drops).
	Journal *Journal
	// Planner selects the routing policy between the WPMaxSAT reduction
	// and the SAT-free rewriting fast path. The zero value
	// (PlannerForceSAT) preserves the pre-planner behavior; servers and
	// CLIs default to PlannerAuto explicitly.
	Planner PlannerMode
}

// System answers queries over one instance.
type System struct {
	in      *db.Instance
	engine  *core.Engine
	planner PlannerMode
}

// PlannerMode returns the routing policy the system was opened with.
func (s *System) PlannerMode() PlannerMode { return s.planner }

// Open prepares a system over the instance.
func Open(in *Instance, opts Options) (*System, error) {
	engOpts := core.Options{
		Mode: core.KeysMode,
		MaxSAT: maxsat.Options{
			SolverPath:    opts.ExternalSolverPath,
			Progress:      opts.Progress,
			ProgressEvery: opts.ProgressEvery,
		},
		Parallelism: opts.Parallelism,
		Timeout:     opts.Timeout,
		Metrics:     opts.Metrics,
		SlowQuery:   opts.SlowQuery,
		OnAnomaly:   opts.OnAnomaly,
		Explain:     opts.Explain,
		Journal:     opts.Journal,
		Planner:     opts.Planner,
	}
	if len(opts.DenialConstraints) > 0 {
		engOpts.Mode = core.DCMode
		engOpts.DCs = opts.DenialConstraints
	}
	return OpenEngine(in, engOpts)
}

// OpenEngine prepares a system from engine options directly. It serves
// the module's own tools that set what Options does not carry (the
// bench suite's solver budgets); core.Options cannot be named outside
// the module, so Open is the public constructor.
func OpenEngine(in *Instance, opts core.Options) (*System, error) {
	eng, err := core.New(in, opts)
	if err != nil {
		return nil, err
	}
	return &System{in: in, engine: eng, planner: opts.Planner}, nil
}

// Row is one group of a query result: the grouping key (empty for
// scalar queries) and one range per aggregate in the SELECT list.
type Row struct {
	Key    Tuple
	Ranges []Range
}

// Result is the outcome of Query.
type Result struct {
	// Columns names the result columns: grouping columns first, then
	// one per aggregate.
	Columns []string
	Rows    []Row
	Stats   Stats
	// PartialGroups counts groups dropped from Rows because some
	// aggregate in the SELECT list had no consistent answer for them: a
	// multi-aggregate row is a consistent answer of the statement only
	// when every cell is, so groups on which the per-aggregate answer
	// sets diverge are removed rather than padded with a zero-valued
	// interval that would render as a real answer.
	PartialGroups int
	// Explains holds one per-solve report per aggregate in the SELECT
	// list, in order, when Options.Explain is set.
	Explains []*Explain
	// Route summarizes which executor answered the statement's
	// aggregates: "rewrite" (the planner's SAT-free fast path), "sat"
	// (the WPMaxSAT reduction), or "mixed" when they differ.
	Route string
}

// Query parses an aggregation-SQL statement, computes the range
// consistent answers of every aggregate in its SELECT list, and applies
// the statement's ORDER BY and TOP clauses to the consistent groups.
func (s *System) Query(sql string) (*Result, error) {
	return s.QueryContext(context.Background(), sql)
}

// QueryContext is Query under a context that may carry a Tracer: the
// whole statement is wrapped in a "query" span, with a "sql.parse" child
// and one "query.range_answers" subtree per aggregate.
func (s *System) QueryContext(ctx context.Context, sql string) (*Result, error) {
	ctx, sp := obsv.StartSpan(ctx, "query")
	defer sp.End()
	// Journal lines of this statement carry the SQL text, not the
	// rendered algebraic query, so journals read like the user's input —
	// unless the caller already labeled the context (a server stamping
	// its tenant/instance, a replay stamping the workload query name).
	if obsv.QueryLabelFrom(ctx) == "" {
		ctx = obsv.WithQueryLabel(ctx, sql)
	}
	_, psp := obsv.StartSpan(ctx, "sql.parse")
	tr, err := sqlparse.ParseAndTranslate(sql, s.in.Schema())
	psp.End()
	if err != nil {
		return nil, err
	}
	return s.run(ctx, tr)
}

func (s *System) run(ctx context.Context, tr *sqlparse.Translation) (*Result, error) {
	res := &Result{}
	for _, g := range tr.GroupCols {
		res.Columns = append(res.Columns, g.String())
	}
	type keyed struct {
		key    Tuple
		ranges []Range
		filled int // aggregates that reported this group
	}
	var rows []keyed
	index := map[string]int{}
	positions := []int{}
	for ai, agg := range tr.Aggs {
		res.Columns = append(res.Columns, agg.Item.String())
		rep, err := s.engine.RangeAnswersContext(ctx, agg.Query)
		if err != nil {
			return nil, err
		}
		res.Stats.Add(rep.Stats)
		if rep.Explain != nil {
			res.Explains = append(res.Explains, rep.Explain)
		}
		switch {
		case ai == 0:
			res.Route = rep.Route
		case res.Route != rep.Route:
			res.Route = "mixed"
		}
		for _, a := range rep.Answers {
			if len(positions) != len(a.Key) {
				positions = positions[:0]
				for i := range a.Key {
					positions = append(positions, i)
				}
			}
			k := a.Key.Key(positions)
			ri, ok := index[k]
			if !ok {
				ri = len(rows)
				index[k] = ri
				rows = append(rows, keyed{key: a.Key, ranges: make([]Range, len(tr.Aggs))})
			}
			rows[ri].ranges[ai] = a.Range
			rows[ri].filled++
		}
	}
	// A group absent from some aggregate's answer set has no consistent
	// value for that cell; keeping the row would emit a zero Range (both
	// endpoints null) that reads like a real interval. Such groups are
	// dropped and counted instead: the statement's consistent answers
	// are the groups every aggregate agrees on.
	if len(tr.Aggs) > 1 {
		complete := rows[:0]
		for _, r := range rows {
			if r.filled == len(tr.Aggs) {
				complete = append(complete, r)
			} else {
				res.PartialGroups++
			}
		}
		rows = complete
	}
	// Order: ORDER BY keys, then the full group key for determinism.
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range tr.OrderBy {
			c := rows[i].key[k.GroupIndex].Compare(rows[j].key[k.GroupIndex])
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return rows[i].key.Compare(rows[j].key) < 0
	})
	if tr.Top > 0 && len(rows) > tr.Top {
		rows = rows[:tr.Top]
	}
	for _, r := range rows {
		res.Rows = append(res.Rows, Row{Key: r.key, Ranges: r.ranges})
	}
	return res, nil
}

// RangeAnswers computes the range consistent answers of an algebraic
// aggregation query (the non-SQL entry point).
func (s *System) RangeAnswers(q AggQuery) ([]GroupAnswer, Stats, error) {
	rep, err := s.engine.RangeAnswers(q)
	if err != nil {
		return nil, Stats{}, err
	}
	out := make([]GroupAnswer, len(rep.Answers))
	for i, a := range rep.Answers {
		out[i] = GroupAnswer{Key: a.Key, Range: a.Range}
	}
	return out, rep.Stats, nil
}

// GroupAnswer pairs a grouping key with its range.
type GroupAnswer = core.GroupAnswer

// ConsistentAnswers computes CONS(q) of a union of conjunctive queries:
// the answers certain to appear regardless of how the database is
// repaired.
func (s *System) ConsistentAnswers(u UCQ) ([]Tuple, error) {
	ans, _, err := s.engine.ConsistentAnswers(u)
	return ans, err
}

// FormatRange renders an interval like "[900, 2200]" ("1500" when the
// endpoints agree). Null endpoints render as documented tokens rather
// than leaking the raw null value into the interval syntax: a range with
// both endpoints null is "NULL" (no consistent value), a null glb
// renders as "-∞" and a null lub as "+∞" (half-open ranges, e.g. from
// MIN/MAX groups where some repair empties the group).
func FormatRange(r Range) string {
	switch {
	case r.GLB.IsNull() && r.LUB.IsNull():
		return "NULL"
	case !r.GLB.IsNull() && r.GLB.Equal(r.LUB):
		return r.GLB.String()
	}
	glb, lub := r.GLB.String(), r.LUB.String()
	if r.GLB.IsNull() {
		glb = "-∞"
	}
	if r.LUB.IsNull() {
		lub = "+∞"
	}
	return fmt.Sprintf("[%s, %s]", glb, lub)
}
