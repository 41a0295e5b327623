package core

import (
	"context"
	"fmt"
	"sort"

	"aggcavsat/internal/cnf"
	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
	"aggcavsat/internal/obsv"
	"aggcavsat/internal/sat"
)

// minMaxFromBag computes range consistent answers for MIN(A)/MAX(A) by
// a sequence of repair-existence probes, following the paper's extended
// version: the endpoints are located by asking, per candidate value v,
// whether some repair contains a witness of value v (presence probes)
// and whether one does while breaking every witness above/below v
// (suppression probes).
//
//   - lub(MAX) = largest v such that some repair contains a witness of
//     value v (such a repair has MAX ≥ v, and no repair exceeds the
//     largest attainable v).
//   - glb(MAX) = smallest v such that some repair contains a value-v
//     witness and breaks all witnesses of value > v (its MAX is then
//     exactly v).
//   - MIN is symmetric.
//
// Endpoints range over the repairs with a non-empty result; if some
// repair breaks every witness (MIN/MAX would be SQL NULL there),
// EmptyPossible is set.
//
// In keys mode group elimination answers the probes (eliminateProbes);
// a probe set it declines, and every one in DC mode, is answered by
// incremental SAT calls under assumptions.
func (e *Engine) minMaxFromBag(ctx context.Context, op cq.AggOp, bag []cq.Witness, rc *recorder) (Range, error) {
	cc := e.constraintCtx(ctx, rc)

	encodeMark := startUnit()
	_, esp := obsv.StartSpan(ctx, "core.encode")
	// Collect witnesses per distinct value.
	byValue := map[string]*valueGroup{}
	var order []string
	for _, w := range bag {
		if len(w.Answer) != 1 {
			esp.End()
			return Range{}, fmt.Errorf("core: %s witness with %d answer values", op, len(w.Answer))
		}
		v := w.Answer[0]
		if v.IsNull() {
			continue
		}
		k := db.Tuple{v}.Key([]int{0})
		g, ok := byValue[k]
		if !ok {
			g = &valueGroup{value: v}
			byValue[k] = g
			order = append(order, k)
		}
		g.factSets = append(g.factSets, w.Facts)
	}
	if len(byValue) == 0 {
		rc.endPhase(phaseEncode, encodeMark)
		esp.End()
		return Range{GLB: db.Null(), LUB: db.Null(), EmptyPossible: true}, nil
	}
	values := make([]*valueGroup, 0, len(byValue))
	for _, k := range order {
		values = append(values, byValue[k])
	}
	sort.Slice(values, func(i, j int) bool { return values[i].value.Compare(values[j].value) < 0 })

	if cc.mode == KeysMode {
		if res, shape, ok := eliminateProbes(cc, e.elimBudget, op, values); ok {
			facts, size := minMaxSize(cc, values)
			rc.eliminated(encodeMark, "probe", facts, len(values), size, shape)
			esp.End()
			return res, nil
		}
	}
	return e.probeBySAT(ctx, cc, op, values, rc, encodeMark, esp)
}

// valueGroup is the witnesses of one value of the aggregated attribute.
type valueGroup struct {
	value    db.Value
	factSets [][]db.FactID
}

// probeFunc asks whether some repair keeps a witness of values[keep]
// (no such requirement when keep is -1) and breaks every witness of the
// values [lo, hi).
type probeFunc func(keep, lo, hi int) (bool, error)

// runProbes locates the endpoints over the values, sorted ascending,
// with probe; it returns the number of probes asked.
func runProbes(op cq.AggOp, values []*valueGroup, probe probeFunc) (res Range, probes int, err error) {
	ask := func(keep, lo, hi int) (bool, error) {
		probes++
		return probe(keep, lo, hi)
	}
	n := len(values)
	// Can every witness be broken simultaneously?
	emptyPossible, err := ask(-1, 0, n)
	if err != nil {
		return Range{}, probes, err
	}
	res = Range{EmptyPossible: emptyPossible, GLB: db.Null(), LUB: db.Null()}
	switch op {
	case cq.Max:
		// lub(MAX): largest attainable value.
		for i := n - 1; i >= 0; i-- {
			ok, err := ask(i, 0, 0)
			if err != nil {
				return Range{}, probes, err
			}
			if ok {
				res.LUB = values[i].value
				break
			}
		}
		// glb(MAX) over non-empty repairs: smallest v such that some
		// repair contains a value-v witness and breaks every witness of
		// a larger value.
		for i := 0; i < n; i++ {
			ok, err := ask(i, i+1, n)
			if err != nil {
				return Range{}, probes, err
			}
			if ok {
				res.GLB = values[i].value
				break
			}
		}
	case cq.Min:
		// glb(MIN): smallest attainable value.
		for i := 0; i < n; i++ {
			ok, err := ask(i, 0, 0)
			if err != nil {
				return Range{}, probes, err
			}
			if ok {
				res.GLB = values[i].value
				break
			}
		}
		// lub(MIN) over non-empty repairs.
		for i := n - 1; i >= 0; i-- {
			ok, err := ask(i, 0, i)
			if err != nil {
				return Range{}, probes, err
			}
			if ok {
				res.LUB = values[i].value
				break
			}
		}
	default:
		return Range{}, probes, fmt.Errorf("core: minMaxFromBag on %s", op)
	}
	return res, probes, nil
}

// eliminateProbes answers the probes of minMaxFromBag by group
// elimination. Probe (keep, lo, hi) weighs each witness of values[keep]
// +1 and each of the values [lo, hi) −(n+1), n being the number of the
// former: a repair keeps one of the first and breaks all of the second
// iff its weighted count is positive, so the probe holds iff the
// maximum count over the repairs is positive (is 0, with no value
// kept). The witnesses are split into components once; a probe sums
// the maxima of each component restricted to the witnesses it weighs.
// The kernel computes each maximum as a minimum over the complemented
// weights, with its max tables off: a kept witness is negative at
// weight 1 (falsified when absent) and a suppressed one positive at
// weight n+1 (falsified when present), so the minimum falsified weight
// is the component's kept witnesses less its maximum count.
// ok is false when some probe needs a table over budget, or a witness
// has no fact: the whole probe set then goes to the SAT probes.
//
// The weighted total stays below (w+1)², w the number of witnesses,
// far inside an int64.
func eliminateProbes(cc *constraintContext, budget int, op cq.AggOp, values []*valueGroup) (res Range, shape elimShape, ok bool) {
	var sets []cq.Witness
	var valueOf []int
	for vi, g := range values {
		for _, fs := range g.factSets {
			if len(fs) == 0 {
				return Range{}, shape, false
			}
			sets = append(sets, cq.Witness{Facts: fs})
			valueOf = append(valueOf, vi)
		}
	}
	split := splitComponents(cc, weightedBag{ws: sets})
	// Each probe weighs the witnesses it asks about.
	b := weightedBag{ws: sets, wt: make([]witnessWeight, len(sets))}
	el := eliminator{cc: cc, bag: b, budget: budget, minOnly: true}
	var idx []int32
	declined := errString("declined")
	res, _, err := runProbes(op, values, func(keep, lo, hi int) (bool, error) {
		var kept int64
		if keep >= 0 {
			kept = int64(len(values[keep].factSets))
		}
		var best int64
		for ci := range split.count() {
			facts, all := split.component(ci)
			idx = idx[:0]
			var keptHere int64
			for _, wi := range all {
				switch v := valueOf[wi]; {
				case v == keep:
					b.wt[wi] = witnessWeight{weight: 1, negative: true}
					keptHere++
				case lo <= v && v < hi:
					b.wt[wi] = witnessWeight{weight: kept + 1}
				default:
					continue
				}
				idx = append(idx, wi)
			}
			if len(idx) == 0 {
				continue
			}
			minF, _, sh, ok := el.solve(facts, idx)
			if !ok {
				return false, declined
			}
			shape = shape.widest(sh)
			best += keptHere - minF
		}
		if keep < 0 {
			return best == 0, nil
		}
		return best > 0, nil
	})
	if err != nil {
		return Range{}, shape, false
	}
	return res, shape, true
}

// minMaxSize counts the formula probeBySAT builds for values, without
// building it: the hard clauses over the closure of every witness, and
// a defined presence variable, with its clauses, per witness of
// several facts (encoder.presentLit).
func minMaxSize(cc *constraintContext, values []*valueGroup) (facts int, size formulaSize) {
	var seed []db.FactID
	for _, g := range values {
		for _, fs := range g.factSets {
			seed = append(seed, fs...)
			if len(fs) > 1 {
				size.vars++
				size.clauses += len(fs) + 1
			}
		}
	}
	hard := keysHardSize(cc, seed)
	size.vars += hard.vars
	size.clauses += hard.clauses
	return hard.vars, size
}

// probeBySAT answers the probes with incremental SAT calls under
// assumptions, over the hard clauses of the closure of every witness
// fact (safe facts become forced-in units, so no folding is needed).
func (e *Engine) probeBySAT(ctx context.Context, cc *constraintContext, op cq.AggOp, values []*valueGroup, rc *recorder, encodeMark phaseMark, esp *obsv.Span) (Range, error) {
	var seed []db.FactID
	for _, g := range values {
		for _, fs := range g.factSets {
			seed = append(seed, fs...)
		}
	}
	closure := cc.closure(seed)
	enc := newEncoder(cc, closure)
	// Allocate witness-presence literals first so every defining clause
	// lands in enc.formula before the solver copies it.
	presentLits := make([][]cnf.Lit, len(values))
	for i, g := range values {
		presentLits[i] = make([]cnf.Lit, len(g.factSets))
		for j, fs := range g.factSets {
			presentLits[i][j] = enc.presentLit(fs)
		}
	}
	solver, err := e.hardSolver(enc.formula)
	if err != nil {
		esp.End()
		return Range{}, err
	}
	release := sat.StopOnDone(ctx, solver)
	defer release()

	// Per value v: suppress[v] assumes every witness of value v broken;
	// present[v] assumes some witness of value v fully present.
	suppress := make([]cnf.Lit, len(values))
	present := make([]cnf.Lit, len(values))
	for i, g := range values {
		a := cnf.Lit(solver.NewVar())
		suppress[i] = a
		for _, fs := range g.factSets {
			clause := make([]cnf.Lit, 0, len(fs)+1)
			clause = append(clause, a.Neg())
			for _, f := range fs {
				clause = append(clause, enc.lit(f).Neg())
			}
			solver.AddClause(clause...)
		}
		b := cnf.Lit(solver.NewVar())
		present[i] = b
		disj := make([]cnf.Lit, 0, len(g.factSets)+1)
		disj = append(disj, b.Neg())
		disj = append(disj, presentLits[i]...)
		solver.AddClause(disj...)
	}
	ce := rc.component(encodeMark, esp, enc.formula, len(closure), len(values))

	_, ssp := obsv.StartSpan(ctx, "core.minmax_probes")
	solveMark := startPhase()
	var asm []cnf.Lit
	res, probes, err := runProbes(op, values, func(keep, lo, hi int) (bool, error) {
		asm = asm[:0]
		if keep >= 0 {
			asm = append(asm, present[keep])
		}
		asm = append(asm, suppress[lo:hi]...)
		switch solver.Solve(asm...) {
		case sat.Sat:
			return true, nil
		case sat.Unsat:
			return false, nil
		default:
			return false, stopCause(ctx)
		}
	})
	sd := rc.endPhase(phaseSolve, solveMark)
	rc.solved(int64(probes), false)
	ce.AddDirection("probe", "sat", int64(probes), 0, sd)
	if ssp != nil {
		ssp.SetInt("probes", int64(probes))
		ssp.End()
	}
	return res, err
}
