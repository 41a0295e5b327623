package obsv

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
	"time"
)

// DirectionExplain describes one solver pass within a component solve:
// a WPMaxSAT optimization direction ("glb"/"lub"), the iterative SAT
// probe sequence of MIN/MAX ("probe"), or the per-candidate consistency
// checks of Algorithm 2 ("consistency").
type DirectionExplain struct {
	Direction string `json:"direction"`
	// Algorithm is the strategy that answered the pass: the MaxSAT
	// solver that ran ("maxhs", "rc2", "external"), "sat" for plain
	// probe/consistency passes that never build a MaxSAT instance, or
	// "elimination" for passes group elimination answered.
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
	Facts     int   `json:"facts"`
	Witnesses int   `json:"witnesses"`
	Vars      int   `json:"vars"`
	Clauses   int   `json:"clauses"`
	EncodeNS  int64 `json:"encode_ns"`
	// ClosedForm reports an entry group elimination answered whole,
	// with no solver: Vars/Clauses are the counted size of a formula
	// that was never built. A keys-mode COUNT/SUM
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

// AddDirection appends one solver pass (nil-receiver-safe so the solve
// path records unconditionally). No locking: each component entry is
// owned by the one worker goroutine solving that component until the
// call ends.
func (ce *ComponentExplain) AddDirection(dir, alg string, satCalls, conflicts int64, d time.Duration) {
	if ce == nil {
		return
	}
	ce.Directions = append(ce.Directions, DirectionExplain{
		Direction: dir,
		Algorithm: alg,
		SATCalls:  satCalls,
		Conflicts: conflicts,
		SolveNS:   int64(d),
	})
}

// AddElimination records that group elimination decided part of the
// component's checks before the solver took the rest, with the
// elimination width and largest table (nil-receiver safe, unlocked, as
// AddDirection).
func (ce *ComponentExplain) AddElimination(pass string, width, table int) {
	if ce == nil {
		return
	}
	ce.ElimWidth, ce.ElimTable = width, table
	ce.Directions = append(ce.Directions, DirectionExplain{Direction: pass, Algorithm: "elimination"})
}

// WriteTable renders the entry as the explain report, an aligned text
// table: the solve configuration and cache outcomes, the per-phase
// time/alloc breakdown (the same numbers as `-stats`), and one row per
// component solver pass.
func (e *JournalEntry) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "query\t%s\n", e.Query)
	if e.Algebra != "" && e.Algebra != e.Query {
		fmt.Fprintf(tw, "algebra\t%s\n", e.Algebra)
	}
	fmt.Fprintf(tw, "op\t%s\n", e.Op)
	if e.TraceID != "" {
		fmt.Fprintf(tw, "trace\t%s\n", e.TraceID)
	}
	fmt.Fprintf(tw, "mode\t%s\n", e.Options.Mode)
	route := e.Route
	if e.RouteReason != "" {
		route += " (" + e.RouteReason + ")"
	}
	fmt.Fprintf(tw, "route\t%s\n", route)
	fmt.Fprintf(tw, "solver\t%s\n", e.Options.Algorithm)
	fmt.Fprintf(tw, "parallelism\t%d\n", e.Options.Parallelism)
	cons := "miss"
	if e.ConstraintCached {
		cons = "hit"
	}
	if e.ConstraintBuildNS > 0 {
		cons += fmt.Sprintf(" (built in %v)", time.Duration(e.ConstraintBuildNS))
	}
	fmt.Fprintf(tw, "constraint cache\t%s\n", cons)
	if e.Options.Mode == "dc" {
		fmt.Fprintf(tw, "violation route\t%d FD partition(s), %d generic DC(s)\n", e.FDPartitions, e.GenericDCs)
	}
	if e.ConsistentSkips > 0 {
		fmt.Fprintf(tw, "consistent-part skips\t%d\n", e.ConsistentSkips)
	}
	if e.ClosedForm > 0 {
		fmt.Fprintf(tw, "closed-form components\t%d\n", e.ClosedForm)
	}
	if e.Folded > 0 {
		fmt.Fprintf(tw, "folded assignments\t%d\n", e.Folded)
	}
	fmt.Fprintln(tw)

	rewrite, witness, constraint := msDuration(e.RewriteMS), msDuration(e.WitnessMS), msDuration(e.ConstraintMS)
	encode, solve := msDuration(e.EncodeMS), msDuration(e.SolveMS)
	fmt.Fprintf(tw, "phase\ttime\talloc\n")
	if rewrite > 0 {
		fmt.Fprintf(tw, "rewrite\t%v\t\n", rewrite)
	}
	fmt.Fprintf(tw, "witness\t%v\t%s\n", witness, byteCount(e.WitnessAllocBytes))
	fmt.Fprintf(tw, "constraint\t%v\t\n", constraint)
	fmt.Fprintf(tw, "encode\t%v\t%s\n", encode, byteCount(e.EncodeAllocBytes))
	fmt.Fprintf(tw, "solve\t%v\t%s\n", solve, byteCount(e.SolveAllocBytes))
	fmt.Fprintf(tw, "total\t%v\t\n", rewrite+witness+constraint+encode+solve)
	fmt.Fprintln(tw)

	if len(e.Components) > 0 {
		fmt.Fprintf(tw, "component\tfacts\tunits\tvars\tclauses\tpass\talg\tsat\tconfl\tsolve\n")
		for _, ce := range e.Components {
			if len(ce.Directions) == 0 {
				fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t\t\t\t\t\n",
					ce.Index, ce.Facts, ce.Witnesses, ce.Vars, ce.Clauses)
				continue
			}
			for di, d := range ce.Directions {
				if di == 0 {
					fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t", ce.Index, ce.Facts, ce.Witnesses, ce.Vars, ce.Clauses)
				} else {
					fmt.Fprintf(tw, "\t\t\t\t\t")
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

// msDuration turns a journal millisecond figure back into the duration
// it was rendered from (exact to the nanosecond below 2^51 ns, about
// 26 days).
func msDuration(ms float64) time.Duration {
	return time.Duration(math.Round(ms * float64(time.Millisecond)))
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
