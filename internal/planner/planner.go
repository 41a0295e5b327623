// Package planner routes aggregation queries between the solver route
// and the ConQuer-style rewriting.
//
// The solver route answers every query under auto and force-sat: in
// keys mode group elimination over key-equal groups decides each
// component, with WPMaxSAT as the fallback; in DC mode every component
// goes to WPMaxSAT. The rewriting (internal/conquer) compiles a
// self-join-free conjunctive query whose join tree is rooted at the
// aggregation relation with full-key child joins (the C_aggforest
// class) into pure relational evaluation. It serves only force-rewrite,
// which fails every query outside the class with ErrRewriteUnavailable;
// elsewhere it is the ConQuer baseline of the experiments and a
// differential oracle.
//
// Some rejections are data-dependent and only surface while executing a
// plan (a negative or non-integer SUM value, a scalar MIN/MAX whose
// result can be empty). Under force-rewrite the engine returns them as
// conquer.ErrNotInClass.
package planner

import (
	"errors"
	"fmt"
	"strings"

	"aggcavsat/internal/conquer"
	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
)

// Mode selects how queries are routed.
type Mode int

const (
	// ModeSAT pins every query to the solver route. It is the zero
	// value so engines configured before the planner existed keep their
	// behavior bit for bit.
	ModeSAT Mode = iota
	// ModeAuto is the serving default. It routes every query to the
	// solver route, which answers faster than the rewriting wherever
	// both apply; only its route reason differs from ModeSAT.
	ModeAuto
	// ModeRewrite forces the rewriting: queries outside the class fail
	// with ErrRewriteUnavailable instead of falling back.
	ModeRewrite
)

// String renders the mode as its flag spelling.
func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeRewrite:
		return "force-rewrite"
	default:
		return "force-sat"
	}
}

// ParseMode parses a -planner flag value: auto, force-sat or
// force-rewrite (sat and rewrite are accepted as shorthands).
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "auto":
		return ModeAuto, nil
	case "force-sat", "sat":
		return ModeSAT, nil
	case "force-rewrite", "rewrite":
		return ModeRewrite, nil
	}
	return ModeSAT, fmt.Errorf("planner: unknown mode %q (want auto, force-sat or force-rewrite)", s)
}

// ErrRewriteUnavailable is returned (wrapped, with the rejection
// reason) when ModeRewrite is forced on a query the rewriting cannot
// answer. Match with errors.Is.
var ErrRewriteUnavailable = errors.New("planner: query is not rewritable and planner mode is force-rewrite")

// Route is the executor chosen for one query.
type Route int

const (
	// RouteSAT solves through the solver route: group elimination in
	// keys mode, the WPMaxSAT reduction as its fallback and in DC mode.
	RouteSAT Route = iota
	// RouteRewrite answers through the compiled ConQuer-style rewriting.
	RouteRewrite
)

// String renders the route as recorded in metrics, journals and explain
// reports.
func (r Route) String() string {
	if r == RouteRewrite {
		return "rewrite"
	}
	return "sat"
}

// Rejection reasons that do not come out of conquer.Analyze. Tests pin
// these strings; they also appear verbatim in explain reports and
// journal entries.
const (
	// ReasonForcedSAT is stamped when force-sat pins every query to the
	// solver.
	ReasonForcedSAT = "planner mode forces the solver"
	// ReasonAuto is stamped on every query auto serves: the solver route
	// answers all of them, the rewriting none.
	ReasonAuto = "auto serves every query on the solver route"
	// ReasonDenialConstraints rejects force-rewrite under DC-mode repairs:
	// the ConQuer argument is a primary-key result, non-key denial
	// constraints need the solver.
	ReasonDenialConstraints = "non-key denial constraints require the solver"
)

// Decision is the routing verdict for one query.
type Decision struct {
	Route Route
	// Reason explains a SAT route (why the rewriting was not taken);
	// empty on the rewrite route.
	Reason string
	// Plan is the compiled rewriting for RouteRewrite decisions.
	Plan *conquer.Plan
}

// Planner classifies queries for one engine. It owns the instance's
// rewriting indexes, which are built on the first plan executed; it is
// safe for concurrent use.
type Planner struct {
	schema *db.Schema
	mode   Mode
	hasDCs bool
	ix     *conquer.Indexes
}

// New creates a planner for the instance. hasDCs marks engines whose
// repairs come from denial constraints rather than primary keys; those
// always route to the solver.
func New(in *db.Instance, mode Mode, hasDCs bool) *Planner {
	return &Planner{schema: in.Schema(), mode: mode, hasDCs: hasDCs, ix: conquer.NewIndexes(in)}
}

// Indexes returns the instance's memoized rewriting indexes, shared by
// every plan executed against it.
func (p *Planner) Indexes() *conquer.Indexes { return p.ix }

// Decide returns the route of q (already head-built and
// schema-validated). Only force-rewrite classifies q: it gets the
// compiled plan, or the reason the rewriting rejects q.
func (p *Planner) Decide(q cq.AggQuery) Decision {
	switch {
	case p.mode == ModeSAT:
		return Decision{Route: RouteSAT, Reason: ReasonForcedSAT}
	case p.mode == ModeAuto:
		return Decision{Route: RouteSAT, Reason: ReasonAuto}
	case p.hasDCs:
		return Decision{Route: RouteSAT, Reason: ReasonDenialConstraints}
	}
	plan, err := conquer.Analyze(p.schema, q)
	if err != nil {
		return Decision{Route: RouteSAT, Reason: TrimReason(err)}
	}
	return Decision{Route: RouteRewrite, Plan: plan}
}

// TrimReason compresses a conquer classification error into the bare
// reason recorded in explain reports and journals: the ErrNotInClass
// prefix is implied by the SAT route, so only the detail after it is
// kept.
func TrimReason(err error) string {
	msg := err.Error()
	if rest, ok := strings.CutPrefix(msg, conquer.ErrNotInClass.Error()+": "); ok {
		return rest
	}
	return msg
}
