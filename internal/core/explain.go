package core

import (
	"fmt"
	"io"
	"sync"
	"text/tabwriter"
	"time"

	"aggcavsat/internal/maxsat"
)

// DirectionExplain describes one solver pass within a component solve:
// a WPMaxSAT optimization direction ("glb"/"lub"), the iterative SAT
// probe sequence of MIN/MAX ("probe"), or the per-candidate consistency
// checks of Algorithm 2 ("consistency").
type DirectionExplain struct {
	Direction string `json:"direction"`
	// Algorithm is the configured MaxSAT strategy ("sat" for plain
	// probe/consistency passes that never build a MaxSAT instance).
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

	Directions []DirectionExplain `json:"directions,omitempty"`
}

// addDirection appends one solver pass (nil-receiver-safe so the solve
// path records unconditionally). No locking: each component entry is
// owned by the one worker goroutine solving that component, and the
// collector publishes entries under its own mutex.
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

// Explain is the per-solve report assembled when Options.Explain is set:
// which code paths answered the call (mode, planner route, solver),
// the cache outcomes, the per-component breakdown, and the same Stats
// projection the Report carries — both views are built from the one
// call-local metric snapshot, so their phase totals reconcile exactly.
type Explain struct {
	Query string `json:"query"`
	Op    string `json:"op"`
	// TraceID is the W3C trace id of the request that ran this call (32
	// lowercase hex digits), when the context carried one — the same id
	// the journal line, flight bundle, and cavsatd response carry.
	TraceID string `json:"trace_id,omitempty"`
	// Mode is "keys" or "dc". Incremental is false only for the
	// external solver, which runs one WCNF file per MaxSAT run.
	Mode        string `json:"mode"`
	Algorithm   string `json:"algorithm"`
	Incremental bool   `json:"incremental"`
	Parallelism int    `json:"parallelism"`

	// Route is the executor the planner picked: "rewrite" (ConQuer-style
	// SAT-free fast path) or "sat" (the WPMaxSAT reduction). RouteReason
	// explains a SAT route — the structural classifier rejection, the
	// forced mode, or a run-time fallback; empty on the rewrite route.
	// PlanCached reports that the routing decision came from the
	// planner's per-shape cache.
	Route       string `json:"route"`
	RouteReason string `json:"route_reason,omitempty"`
	PlanCached  bool   `json:"plan_cached"`

	// ConstraintCached reports that the constraint context (key-equal
	// groups / minimal violations) was served from a cache rather than
	// built during this call. FastPathRels/GenericDCs attribute the DC
	// violation route (zero in keys mode).
	ConstraintCached bool `json:"constraint_cached"`
	FastPathRels     int  `json:"fastpath_rels"`
	GenericDCs       int  `json:"generic_dcs"`
	// BaseHits/BaseMisses count Engine.bases outcomes across the call's
	// components; ConsistentSkips counts groups answered without SAT.
	BaseHits        int64 `json:"base_hits"`
	BaseMisses      int64 `json:"base_misses"`
	ConsistentSkips int   `json:"consistent_skips"`

	Components []ComponentExplain `json:"components"`

	// Stats is the call's typed metric projection — identical to
	// Report.Stats (same snapshot), which is the reconciliation contract
	// of `cavsat -explain` vs `-stats`.
	Stats Stats `json:"stats"`
}

// explainCollector accumulates component breakdowns across the
// concurrent solve fan-out of one engine call.
type explainCollector struct {
	mu    sync.Mutex
	comps []*ComponentExplain
}

// component registers a new component entry (nil-receiver-safe: returns
// nil when explain is off, and every ComponentExplain method accepts a
// nil receiver).
func (c *explainCollector) component(facts, witnesses int) *ComponentExplain {
	if c == nil {
		return nil
	}
	ce := &ComponentExplain{Facts: facts, Witnesses: witnesses}
	c.mu.Lock()
	ce.Index = len(c.comps)
	c.comps = append(c.comps, ce)
	c.mu.Unlock()
	return ce
}

// setEncode stamps the encode outcome on a component entry
// (nil-receiver-safe).
func (ce *ComponentExplain) setEncode(vars, clauses int, baseHit bool, d time.Duration) {
	if ce == nil {
		return
	}
	ce.Vars = vars
	ce.Clauses = clauses
	ce.BaseHit = baseHit
	ce.EncodeNS += int64(d)
}

// buildExplain assembles the Explain report from the call-local metric
// snapshot and the collected component entries.
func (e *Engine) buildExplain(query, op, traceID string, rc *recorder, stats Stats) *Explain {
	cc := e.context()
	ex := &Explain{
		Query:       query,
		Op:          op,
		TraceID:     traceID,
		Mode:        e.modeString(),
		Algorithm:   e.opts.MaxSAT.Algorithm.String(),
		Incremental: e.incremental(),
		Parallelism: e.parallelism(),

		Route:       rc.route.String(),
		RouteReason: rc.routeReason,
		PlanCached:  rc.planCached,

		ConstraintCached: rc.constraintHit.Load(),
		FastPathRels:     cc.fastRels,
		GenericDCs:       cc.genericDCs,
		ConsistentSkips:  stats.ConsistentPartSkips,
		Stats:            stats,
	}
	if rc.exp != nil {
		rc.exp.mu.Lock()
		ex.Components = make([]ComponentExplain, len(rc.exp.comps))
		for i, ce := range rc.exp.comps {
			ex.Components[i] = *ce
			if ce.BaseHit {
				ex.BaseHits++
			} else if e.incremental() {
				ex.BaseMisses++
			}
		}
		rc.exp.mu.Unlock()
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
	if ex.Route == "rewrite" && ex.PlanCached {
		route += " (plan cached)"
	}
	fmt.Fprintf(tw, "route\t%s\n", route)
	solver := ex.Algorithm
	if ex.Incremental {
		solver += " (incremental)"
	} else {
		solver += " (per-run formula)"
	}
	fmt.Fprintf(tw, "solver\t%s\n", solver)
	fmt.Fprintf(tw, "parallelism\t%d\n", ex.Parallelism)
	fmt.Fprintf(tw, "constraint cache\t%s\n", hitMiss(ex.ConstraintCached))
	if ex.Mode == "dc" {
		fmt.Fprintf(tw, "violation route\t%d fast-path relation(s), %d generic DC(s)\n", ex.FastPathRels, ex.GenericDCs)
	}
	fmt.Fprintf(tw, "base cache\t%d hit(s), %d miss(es)\n", ex.BaseHits, ex.BaseMisses)
	if ex.ConsistentSkips > 0 {
		fmt.Fprintf(tw, "consistent-part skips\t%d\n", ex.ConsistentSkips)
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
			base := "miss"
			if ce.BaseHit {
				base = "hit"
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
				fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%v\n", d.Direction, d.Algorithm, d.SATCalls, d.Conflicts, time.Duration(d.SolveNS))
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
