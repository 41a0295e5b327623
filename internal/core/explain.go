package core

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"aggcavsat/internal/maxsat"
	"aggcavsat/internal/obsv"
)

// DirectionExplain describes one solver pass within a component solve:
// a WPMaxSAT optimization direction ("glb"/"lub"), the iterative SAT
// probe sequence of MIN/MAX ("probe"), or the per-candidate consistency
// checks of Algorithm 2 ("consistency").
type DirectionExplain struct {
	Direction string `json:"direction"`
	// Algorithm is the configured MaxSAT strategy ("sat" for plain
	// probe/consistency passes that never build a MaxSAT instance,
	// "elimination" for passes group elimination answered).
	Algorithm string `json:"algorithm"`
	SATCalls  int64  `json:"sat_calls"`
	Conflicts int64  `json:"conflicts,omitempty"`
	SolveNS   int64  `json:"solve_ns"`
}

// ComponentExplain is the per-component breakdown of one solve: each
// independent hard-clause component (disjoint key-equal groups or
// violation clusters) becomes its own WPMaxSAT/SAT instance, and this
// records what that instance looked like and how it was solved.
type ComponentExplain struct {
	// Index is the arrival order of the component in the report; with
	// Parallelism > 1 components finish (and appear) in nondeterministic
	// order.
	Index int `json:"index"`
	// Facts is the size of the component's closure fact set; Witnesses
	// is the number of solve units (witnesses, answer groups, or checked
	// candidates) encoded against it.
	Facts     int `json:"facts"`
	Witnesses int `json:"witnesses"`
	Vars      int `json:"vars"`
	Clauses   int `json:"clauses"`
	// BaseHit reports whether the component's hard-clause encoding and
	// loaded solver base came from the Engine.bases memo (false: built
	// here; meaningless for the external solver, which shares no base).
	BaseHit  bool  `json:"base_hit"`
	EncodeNS int64 `json:"encode_ns"`
	// ClosedForm reports an entry group elimination answered whole,
	// with no solver: Vars/Clauses are the counted size of a formula
	// that was never built and BaseHit is unset. A keys-mode COUNT/SUM
	// component has one "closed-form" pass and no EncodeNS; a
	// consistency filter or a MIN/MAX probe set has one "consistency" or
	// "probe" pass. ElimWidth is the elimination width (0 when no
	// witness couples two violating key-equal groups) and ElimTable the
	// largest bucket table, in entries, also on an entry whose
	// consistency pass elimination shares with the SAT checks.
	ClosedForm bool `json:"closed_form,omitempty"`
	ElimWidth  int  `json:"elim_width,omitempty"`
	ElimTable  int  `json:"elim_table,omitempty"`

	Directions []DirectionExplain `json:"directions,omitempty"`
}

// addDirection appends one solver pass (nil-receiver-safe so the solve
// path records unconditionally). No locking: each component entry is
// owned by the one worker goroutine solving that component until the
// call ends.
func (ce *ComponentExplain) addDirection(dir, alg string, res maxsat.Result, d time.Duration) {
	if ce == nil {
		return
	}
	ce.Directions = append(ce.Directions, DirectionExplain{
		Direction: dir,
		Algorithm: alg,
		SATCalls:  res.SATCalls,
		Conflicts: res.Conflicts,
		SolveNS:   int64(d),
	})
}

// addElimination records that group elimination decided part of the
// component's checks before the solver took the rest (nil-receiver
// safe, unlocked, as addDirection).
func (ce *ComponentExplain) addElimination(pass string, shape elimShape) {
	if ce == nil {
		return
	}
	ce.ElimWidth, ce.ElimTable = shape.width, shape.table
	ce.Directions = append(ce.Directions, DirectionExplain{Direction: pass, Algorithm: "elimination"})
}

// Explain is the per-solve report assembled when Options.Explain is set:
// which code paths answered the call (mode, planner route, solver),
// the cache outcomes, the per-component breakdown, and the same Stats
// the Report carries — both views are projections of the one per-call
// record, so their phase totals reconcile exactly.
type Explain struct {
	Query string `json:"query"`
	Op    string `json:"op"`
	// TraceID is the W3C trace id of the request that ran this call (32
	// lowercase hex digits), when the context carried one — the same id
	// the journal line, flight bundle, and cavsatd response carry.
	TraceID string `json:"trace_id,omitempty"`
	// Mode is "keys" or "dc". Algorithm is the configured solver:
	// "maxhs" (incremental, over a shared hard-clause base) or
	// "external" (one WCNF file per MaxSAT run); the direction rows of
	// Components name the strategy that actually answered each pass.
	Mode        string `json:"mode"`
	Algorithm   string `json:"algorithm"`
	Parallelism int    `json:"parallelism"`

	// Route is the executor the planner picked: "rewrite" (the
	// ConQuer-style rewriting, under force-rewrite only) or "sat" (the
	// solver route). RouteReason explains a SAT route — the planner mode,
	// or why force-rewrite could not rewrite; empty on the rewrite route.
	Route       string `json:"route"`
	RouteReason string `json:"route_reason,omitempty"`

	// ConstraintCached reports that the constraint context (key-equal
	// groups / minimal violations) was served from a cache rather than
	// built during this call; ConstraintBuildNS is then the cached
	// context's build time, which the call did not spend (a call that
	// builds reports it in Stats.ConstraintTime instead).
	// FastPathRels/GenericDCs attribute the DC violation route (zero in
	// keys mode).
	ConstraintCached  bool  `json:"constraint_cached"`
	ConstraintBuildNS int64 `json:"constraint_build_ns,omitempty"`
	FastPathRels      int   `json:"fastpath_rels"`
	GenericDCs        int   `json:"generic_dcs"`
	// BaseHits/BaseMisses count Engine.bases outcomes across the call's
	// components; ConsistentSkips counts groups answered without SAT;
	// ClosedFormComponents counts the COUNT/SUM components answered by
	// group elimination.
	BaseHits             int64 `json:"base_hits"`
	BaseMisses           int64 `json:"base_misses"`
	ConsistentSkips      int   `json:"consistent_skips"`
	ClosedFormComponents int   `json:"closed_form_components"`

	Components []ComponentExplain `json:"components"`

	// Stats is identical to Report.Stats (the same value), which is the
	// reconciliation contract of `cavsat -explain` vs `-stats`.
	Stats Stats `json:"stats"`
}

// buildExplain projects the Explain report from the call's record and
// its Stats.
func (e *Engine) buildExplain(ctx context.Context, rc *recorder, op string, st Stats) *Explain {
	ex := &Explain{
		Query:       rc.query,
		Op:          op,
		TraceID:     obsv.TraceIDFromContext(ctx),
		Mode:        e.modeString(),
		Algorithm:   e.opts.MaxSAT.Algorithm().String(),
		Parallelism: e.parallelism(),

		Route:       rc.route,
		RouteReason: rc.routeReason,

		ConstraintCached:     rc.constraintCached(),
		BaseHits:             rc.baseHits,
		BaseMisses:           rc.baseMisses,
		ConsistentSkips:      st.ConsistentPartSkips,
		ClosedFormComponents: st.ClosedFormComponents,
		Components:           make([]ComponentExplain, len(rc.comps)),
		Stats:                st,
	}
	if rc.cc != nil {
		ex.FastPathRels, ex.GenericDCs = rc.cc.fastRels, rc.cc.genericDCs
		if ex.ConstraintCached {
			ex.ConstraintBuildNS = int64(rc.cc.buildTime)
		}
	}
	for i, ce := range rc.comps {
		ex.Components[i] = *ce
	}
	return ex
}

func (e *Engine) modeString() string {
	if e.opts.Mode == DCMode {
		return "dc"
	}
	return "keys"
}

// WriteTable renders the explain report as an aligned text table: the
// solve configuration and cache outcomes, the per-phase time/alloc
// breakdown (the same numbers as `-stats`), and one row per component
// solver pass.
func (ex *Explain) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "query\t%s\n", ex.Query)
	fmt.Fprintf(tw, "op\t%s\n", ex.Op)
	if ex.TraceID != "" {
		fmt.Fprintf(tw, "trace\t%s\n", ex.TraceID)
	}
	fmt.Fprintf(tw, "mode\t%s\n", ex.Mode)
	route := ex.Route
	if ex.RouteReason != "" {
		route += " (" + ex.RouteReason + ")"
	}
	fmt.Fprintf(tw, "route\t%s\n", route)
	solver := ex.Algorithm + " (incremental)"
	if ex.Algorithm == maxsat.AlgExternal.String() {
		solver = ex.Algorithm + " (per-run formula)"
	}
	fmt.Fprintf(tw, "solver\t%s\n", solver)
	fmt.Fprintf(tw, "parallelism\t%d\n", ex.Parallelism)
	cons := hitMiss(ex.ConstraintCached)
	if ex.ConstraintBuildNS > 0 {
		cons += fmt.Sprintf(" (built in %v)", time.Duration(ex.ConstraintBuildNS))
	}
	fmt.Fprintf(tw, "constraint cache\t%s\n", cons)
	if ex.Mode == "dc" {
		fmt.Fprintf(tw, "violation route\t%d fast-path relation(s), %d generic DC(s)\n", ex.FastPathRels, ex.GenericDCs)
	}
	fmt.Fprintf(tw, "base cache\t%d hit(s), %d miss(es)\n", ex.BaseHits, ex.BaseMisses)
	if ex.ConsistentSkips > 0 {
		fmt.Fprintf(tw, "consistent-part skips\t%d\n", ex.ConsistentSkips)
	}
	if ex.ClosedFormComponents > 0 {
		fmt.Fprintf(tw, "closed-form components\t%d\n", ex.ClosedFormComponents)
	}
	if ex.Stats.FoldedAssignments > 0 {
		fmt.Fprintf(tw, "folded assignments\t%d\n", ex.Stats.FoldedAssignments)
	}
	fmt.Fprintln(tw)

	s := ex.Stats
	fmt.Fprintf(tw, "phase\ttime\talloc\n")
	if s.RewriteTime > 0 {
		fmt.Fprintf(tw, "rewrite\t%v\t\n", s.RewriteTime)
	}
	fmt.Fprintf(tw, "witness\t%v\t%s\n", s.WitnessTime, byteCount(s.WitnessAllocBytes))
	fmt.Fprintf(tw, "constraint\t%v\t\n", s.ConstraintTime)
	fmt.Fprintf(tw, "encode\t%v\t%s\n", s.EncodeTime, byteCount(s.EncodeAllocBytes))
	fmt.Fprintf(tw, "solve\t%v\t%s\n", s.SolveTime, byteCount(s.SolveAllocBytes))
	fmt.Fprintf(tw, "total\t%v\t\n", s.RewriteTime+s.WitnessTime+s.ConstraintTime+s.EncodeTime+s.SolveTime)
	fmt.Fprintln(tw)

	if len(ex.Components) > 0 {
		fmt.Fprintf(tw, "component\tfacts\tunits\tvars\tclauses\tbase\tpass\talg\tsat\tconfl\tsolve\n")
		for _, ce := range ex.Components {
			base := hitMiss(ce.BaseHit)
			if ce.ClosedForm {
				base = "-"
			}
			if len(ce.Directions) == 0 {
				fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%s\t\t\t\t\t\n",
					ce.Index, ce.Facts, ce.Witnesses, ce.Vars, ce.Clauses, base)
				continue
			}
			for di, d := range ce.Directions {
				if di == 0 {
					fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%s\t", ce.Index, ce.Facts, ce.Witnesses, ce.Vars, ce.Clauses, base)
				} else {
					fmt.Fprintf(tw, "\t\t\t\t\t\t")
				}
				alg := d.Algorithm
				if alg == "elimination" {
					alg = fmt.Sprintf("%s (width %d, table %d)", alg, ce.ElimWidth, ce.ElimTable)
				}
				fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%v\n", d.Direction, alg, d.SATCalls, d.Conflicts, time.Duration(d.SolveNS))
			}
		}
	}
	return tw.Flush()
}

func hitMiss(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// byteCount humanizes a byte count (binary units).
func byteCount(b int64) string {
	const unit = 1024
	if b < unit {
		return fmt.Sprintf("%d B", b)
	}
	div, exp := int64(unit), 0
	for n := b / unit; n >= unit; n /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(b)/float64(div), "KMGTPE"[exp])
}
