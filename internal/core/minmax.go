package core

import (
	"context"
	"fmt"
	"sort"

	"aggcavsat/internal/cnf"
	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
	"aggcavsat/internal/maxsat"
	"aggcavsat/internal/obsv"
	"aggcavsat/internal/sat"
)

// minMaxFromBag computes range consistent answers for MIN(A)/MAX(A) by
// iterative SAT solving, following the paper's extended version: the
// endpoints are located by querying, per candidate value v, whether some
// repair contains a witness of value v (presence probes) or whether some
// repair breaks every witness above/below v (suppression probes).
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
func (e *Engine) minMaxFromBag(ctx context.Context, op cq.AggOp, bag []cq.Witness, rc *recorder) (Range, error) {
	cc := e.constraintCtx(ctx, rc)

	encodeMark := startPhase()
	_, esp := obsv.StartSpan(ctx, "core.encode")
	// Collect witnesses per distinct value.
	type valueGroup struct {
		value    db.Value
		factSets [][]db.FactID
	}
	byValue := map[string]*valueGroup{}
	var order []string
	for _, w := range bag {
		if len(w.Answer) != 1 {
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

	// Hard clauses over the closure of every witness fact (safe facts
	// become forced-in units, so no folding is needed here).
	var seed []db.FactID
	for _, g := range values {
		for _, fs := range g.factSets {
			seed = append(seed, fs...)
		}
	}
	closure := cc.closure(seed)
	var enc *encoder
	var base *maxsat.HardBase
	var baseHit bool
	if e.incremental() {
		// The probe solver forks from the component's cached hard base:
		// grouped MIN/MAX queries whose groups share a closure skip the
		// re-encode and clause re-load entirely.
		enc, base, baseHit = e.componentBase(cc, closure)
	} else {
		enc = newEncoder(cc, closure)
	}
	// Allocate witness-presence literals first so every defining clause
	// lands in enc.formula before the solver copies it.
	presentLits := make([][]cnf.Lit, len(values))
	for i, g := range values {
		presentLits[i] = make([]cnf.Lit, len(g.factSets))
		for j, fs := range g.factSets {
			presentLits[i][j] = enc.presentLit(fs)
		}
	}
	var solver *sat.Solver
	if base != nil {
		solver = base.Fork(enc.formula)
		if !solver.Okay() {
			esp.End()
			return Range{}, errInternalUnsat()
		}
	} else {
		solver = sat.New()
		if !solver.AddFormulaHard(enc.formula) {
			esp.End()
			return Range{}, errInternalUnsat()
		}
		solver.EnsureVars(enc.formula.NumVars())
	}
	if b := e.opts.MaxSAT.ConflictBudget; b > 0 {
		solver.SetConflictBudget(b)
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
	ce := rc.component(encodeMark, esp, enc.formula, len(closure), len(values), baseHit)

	_, ssp := obsv.StartSpan(ctx, "core.minmax_probes")
	probes := 0
	solveMark := startPhase()
	defer func() {
		sd := rc.endPhase(phaseSolve, solveMark)
		rc.solved(int64(probes), false)
		ce.addDirection("probe", "sat", maxsat.Result{SATCalls: int64(probes)}, sd)
		if ssp != nil {
			ssp.SetInt("probes", int64(probes))
			ssp.End()
		}
	}()

	solve := func(assumptions ...cnf.Lit) (bool, error) {
		st := solver.Solve(assumptions...)
		probes++
		switch st {
		case sat.Sat:
			return true, nil
		case sat.Unsat:
			return false, nil
		default:
			return false, stopCause(ctx)
		}
	}

	// Can every witness be broken simultaneously?
	emptyPossible, err := solve(suppress...)
	if err != nil {
		return Range{}, err
	}

	res := Range{EmptyPossible: emptyPossible, GLB: db.Null(), LUB: db.Null()}
	switch op {
	case cq.Max:
		// lub(MAX): largest attainable value.
		for i := len(values) - 1; i >= 0; i-- {
			ok, err := solve(present[i])
			if err != nil {
				return Range{}, err
			}
			if ok {
				res.LUB = values[i].value
				break
			}
		}
		// glb(MAX) over non-empty repairs: smallest v such that some
		// repair contains a value-v witness and breaks every witness of
		// a larger value.
		for i := 0; i < len(values); i++ {
			asm := append([]cnf.Lit{present[i]}, suppress[i+1:]...)
			ok, err := solve(asm...)
			if err != nil {
				return Range{}, err
			}
			if ok {
				res.GLB = values[i].value
				break
			}
		}
	case cq.Min:
		// glb(MIN): smallest attainable value.
		for i := 0; i < len(values); i++ {
			ok, err := solve(present[i])
			if err != nil {
				return Range{}, err
			}
			if ok {
				res.GLB = values[i].value
				break
			}
		}
		// lub(MIN) over non-empty repairs.
		for i := len(values) - 1; i >= 0; i-- {
			asm := append([]cnf.Lit{present[i]}, suppress[:i]...)
			ok, err := solve(asm...)
			if err != nil {
				return Range{}, err
			}
			if ok {
				res.LUB = values[i].value
				break
			}
		}
	default:
		return Range{}, fmt.Errorf("core: minMaxFromBag on %s", op)
	}
	return res, nil
}
