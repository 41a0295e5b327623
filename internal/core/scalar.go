package core

import (
	"context"
	"fmt"

	"aggcavsat/internal/cnf"
	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
	"aggcavsat/internal/maxsat"
	"aggcavsat/internal/obsv"
)

// scalarRange computes the range consistent answer of a scalar
// aggregation query: its witnesses form one group, with the consistent
// part folded where the reduction only needs its constant.
func (e *Engine) scalarRange(ctx context.Context, q cq.AggQuery, rc *recorder) (Range, error) {
	groups, err := e.witnesses(ctx, q.Underlying, foldable(q.Op), 0, rc)
	if err != nil {
		return Range{}, err
	}
	var g cq.WitnessGroup
	if len(groups) > 0 {
		g = groups[0]
	}
	units := rc.startUnits()
	defer rc.endUnits(units)
	return e.groupRange(ctx, q.Op, g, rc)
}

// witnesses evaluates the underlying query as the call's witness phase:
// its witness bag, grouped by the first groupArity head values
// (cq.Evaluator.WitnessGroups). With fold, every witness made only of
// safe facts is folded into its group instead of materialized. The
// constraint context is built before the phase starts, so its
// allocations are not counted as the witness phase's.
func (e *Engine) witnesses(ctx context.Context, u cq.UCQ, fold bool, groupArity int, rc *recorder) ([]cq.WitnessGroup, error) {
	var safe func(db.FactID) bool
	if fold {
		safe = e.constraintCtx(ctx, rc).safe
	}
	// Evaluation polls ctx before its first candidate: the boundary from
	// the constraint phase.
	_, sp := obsv.StartSpan(ctx, "cq.witness")
	pm := startPhase()
	groups, err := e.eval.WitnessGroups(ctx, u, groupArity, safe)
	if err == nil {
		err = ctx.Err() // the boundary to encoding
	}
	var materialized int
	var folded int64
	for _, g := range groups {
		materialized += len(g.Witnesses)
		folded += g.Fold.Rows
	}
	rc.evaluated(pm, materialized, folded)
	if sp != nil {
		sp.SetInt("witnesses", int64(materialized))
		sp.SetInt("folded", folded)
		sp.End()
	}
	if err != nil {
		return nil, stopCause(ctx)
	}
	return groups, nil
}

// foldable reports whether op's reduction needs only the constant of
// the consistent part (COUNT(*), COUNT(A), SUM(A)). MIN/MAX and the
// DISTINCT operators encode every witness, so they get the full bag.
func foldable(op cq.AggOp) bool {
	switch op {
	case cq.CountStar, cq.Count, cq.Sum:
		return true
	}
	return false
}

// groupRange computes the range of one group's aggregate from its
// witnesses (and fold).
func (e *Engine) groupRange(ctx context.Context, op cq.AggOp, g cq.WitnessGroup, rc *recorder) (Range, error) {
	switch op {
	case cq.Min, cq.Max:
		return e.minMaxFromBag(ctx, op, g.Witnesses, rc)
	case cq.CountDistinct, cq.SumDistinct:
		return e.distinctFromBag(ctx, op, g.Witnesses, rc)
	default:
		return e.sumCountFromGroup(ctx, op, g, rc)
	}
}

// weightedBag is a group's witnesses with the soft clauses of
// Reduction IV.1 aligned with them: wt[i] is witness i's weight and
// sign. A witness of weight 0 or with no fact is dropped; a nil wt
// keeps every witness with a fact.
type weightedBag struct {
	ws []cq.Witness
	wt []witnessWeight
}

// witnessWeight is one witness's clause weight w_j = m_j · |q*(W_j)|
// and the sign of its aggregated value.
type witnessWeight struct {
	weight   int64
	negative bool
}

// kept reports whether witness i takes part in the reduction.
func (b weightedBag) kept(i int) bool {
	return len(b.ws[i].Facts) > 0 && (b.wt == nil || b.wt[i].weight != 0)
}

// prepareWitnesses weighs a group's witnesses, aligned with them and
// without copying them: COUNT(*) by multiplicity, COUNT(A) by the multiplicity of a non-NULL
// answer, SUM(A) by m_j · |value| with the sign split. A NULL answer
// (COUNT(A), SUM(A)) and a zero value (SUM(A)) get weight 0.
func prepareWitnesses(op cq.AggOp, ws []cq.Witness) (weightedBag, error) {
	b := weightedBag{ws: ws, wt: make([]witnessWeight, len(ws))}
	for i, w := range ws {
		if op == cq.CountStar {
			b.wt[i].weight = w.Mult
			continue
		}
		if op != cq.Count && op != cq.Sum {
			return weightedBag{}, fmt.Errorf("core: prepareWitnesses on %s", op)
		}
		if len(w.Answer) != 1 {
			return weightedBag{}, fmt.Errorf("core: %s witness with %d answer values", op, len(w.Answer))
		}
		v := w.Answer[0]
		switch {
		case v.IsNull():
		case op == cq.Count:
			b.wt[i].weight = w.Mult
		case v.Kind() != db.KindInt:
			return weightedBag{}, errNonIntSum(v)
		default:
			a := v.AsInt()
			mag := a
			if a < 0 {
				mag = -a // stays negative for MinInt64
			}
			weight, ok := cq.MulInt64(w.Mult, mag)
			if !ok || weight < 0 {
				return weightedBag{}, errOverflow(op, "witness weight")
			}
			b.wt[i] = witnessWeight{weight: weight, negative: a < 0}
		}
	}
	return b, nil
}

// foldedBase is the constant the group's folded (all-safe)
// assignments contribute to COUNT(*), COUNT(A) or SUM(A): they survive
// in every repair.
func foldedBase(op cq.AggOp, f cq.Fold) (int64, error) {
	switch op {
	case cq.CountStar:
		return f.Rows, nil
	case cq.Count:
		return f.NonNull, nil
	default:
		if !f.NonInt.IsNull() {
			return 0, errNonIntSum(f.NonInt)
		}
		if f.Overflow {
			return 0, errOverflow(op, "consistent part")
		}
		return f.Sum, nil
	}
}

// errOverflow reports an int64 overflow in the named part of op's
// range computation; it matches ErrOverflow.
func errOverflow(op cq.AggOp, what string) error {
	return fmt.Errorf("core: %s %s: %w", op, what, ErrOverflow)
}

func errNonIntSum(v db.Value) error {
	return fmt.Errorf("core: SUM over non-integer value %v; scale to integers (e.g. cents) first", v)
}

// sumCountFromGroup implements Reduction IV.1 (steps 2a/2b) and the
// Proposition IV.1 decoding for COUNT(*), COUNT(A) and SUM(A). The
// group's consistent part arrives folded into g.Fold, a constant: every
// materialized witness touches a conflicting fact.
//
// The instance splits into independent components. In keys mode each
// component is answered by group elimination (eliminator), inline and
// with no formula; only a component whose elimination needs a table
// over the budget, and every DC-mode component, is encoded and solved.
func (e *Engine) sumCountFromGroup(ctx context.Context, op cq.AggOp, g cq.WitnessGroup, rc *recorder) (Range, error) {
	cc := e.constraintCtx(ctx, rc)

	encodeMark := startUnit()
	unsafe, err := prepareWitnesses(op, g.Witnesses)
	if err != nil {
		return Range{}, err
	}
	base, err := foldedBase(op, g.Fold)
	if err != nil {
		return Range{}, err
	}
	// Every falsified weight and offset below lies between 0 and the
	// total soft weight, so once the total fits in an int64 they all do.
	var total, negOffset int64
	for _, w := range unsafe.wt {
		var ok bool
		if total, ok = cq.AddInt64(total, w.weight); !ok {
			return Range{}, errOverflow(op, "total soft weight")
		}
		if w.negative {
			negOffset += w.weight
		}
	}

	if total == 0 {
		rc.endPhase(phaseEncode, encodeMark)
		rc.skip()
		return Range{GLB: db.Int(base), LUB: db.Int(base), FromConsistentPart: true}, nil
	}

	// The hard-clause graph decomposes into independent components
	// (disjoint key-equal groups / violation clusters); answer each
	// separately and sum the falsified weights.
	split := splitComponents(cc, unsafe)
	minFTotal, maxFTotal, solve := e.eliminateComponents(cc, split, unsafe, rc)
	rc.endPhase(phaseEncode, encodeMark)

	// The remaining components are independent WPMaxSAT instances:
	// encode and solve each on the worker pool, then sum the
	// per-component results (the sum is order-independent, and the
	// per-slot writes keep the accounting deterministic).
	type compResult struct{ minF, maxF int64 }
	results := make([]compResult, len(solve))
	err = forEach(ctx, e.parallelism(), len(solve), func(ctx context.Context, si int) error {
		facts, idx := split.component(solve[si])
		minF, maxF, err := e.solveComponent(ctx, cc, facts, unsafe, idx, rc)
		results[si] = compResult{minF: minF, maxF: maxF}
		return err
	})
	if err != nil {
		return Range{}, err
	}
	for _, r := range results {
		minFTotal += r.minF
		maxFTotal += r.maxF
	}

	// Proposition IV.1: falsified weight F = agg + negOffset, so
	// glb = base + minF − negOffset and lub = base + maxF − negOffset.
	glb, okG := cq.AddInt64(base, minFTotal-negOffset)
	lub, okL := cq.AddInt64(base, maxFTotal-negOffset)
	if !okG || !okL {
		return Range{}, errOverflow(op, "range")
	}
	return Range{GLB: db.Int(glb), LUB: db.Int(lub)}, nil
}

// solveComponent encodes one component of Reduction IV.1 — the hard
// clauses over its closure facts and the soft clauses of the witnesses
// idx of b — and solves it in both directions, returning the minimum
// and maximum falsified weight.
func (e *Engine) solveComponent(ctx context.Context, cc *constraintContext, facts []db.FactID, b weightedBag, idx []int32, rc *recorder) (minF, maxF int64, err error) {
	encodeMark := startPhase()
	_, esp := obsv.StartSpan(ctx, "core.encode")
	enc := newEncoder(cc, facts)
	enc.addWitnesses(b, idx)
	ce := rc.component(encodeMark, esp, enc.formula, len(facts), len(idx))
	return e.solveBothDirections(ctx, enc.formula, rc, ce)
}

// distinctFromBag implements Algorithm 1 for COUNT(DISTINCT A) and
// SUM(DISTINCT A).
func (e *Engine) distinctFromBag(ctx context.Context, op cq.AggOp, bag []cq.Witness, rc *recorder) (Range, error) {
	cc := e.constraintCtx(ctx, rc)

	encodeMark := startUnit()
	minimal := cq.MinimalWitnesses(bag)
	// Partition minimal witnesses by answer value b.
	type answerGroup struct {
		value     db.Value
		witnesses [][]db.FactID
	}
	byAnswer := map[string]*answerGroup{}
	var order []string
	for _, w := range minimal {
		if len(w.Answer) != 1 {
			return Range{}, fmt.Errorf("core: DISTINCT witness with %d answer values", len(w.Answer))
		}
		v := w.Answer[0]
		if v.IsNull() {
			continue
		}
		if op == cq.SumDistinct {
			if v.Kind() != db.KindInt {
				return Range{}, fmt.Errorf("core: SUM(DISTINCT) over non-integer value %v", v)
			}
			if v.AsInt() == 0 {
				continue
			}
		}
		k := db.Tuple{v}.Key([]int{0})
		g, ok := byAnswer[k]
		if !ok {
			g = &answerGroup{value: v}
			byAnswer[k] = g
			order = append(order, k)
		}
		g.witnesses = append(g.witnesses, w.Facts)
	}

	// Fold answers certain to appear (a fully safe minimal witness) and
	// collect the uncertain answers.
	var base int64
	var uncertain []*answerGroup
	for _, k := range order {
		g := byAnswer[k]
		certain := false
		for _, facts := range g.witnesses {
			if cc.allSafe(facts) {
				certain = true
				break
			}
		}
		if certain {
			base += distinctContribution(op, g.value)
			continue
		}
		uncertain = append(uncertain, g)
	}
	if len(uncertain) == 0 {
		rc.endPhase(phaseEncode, encodeMark)
		rc.skip()
		return Range{GLB: db.Int(base), LUB: db.Int(base), FromConsistentPart: true}, nil
	}

	// Component decomposition: all witnesses of one answer are coupled
	// by its v^b variable, so union their facts before splitting.
	answers := make([]cq.Witness, len(uncertain))
	for i, g := range uncertain {
		for _, facts := range g.witnesses {
			answers[i].Facts = append(answers[i].Facts, facts...)
		}
	}
	split := splitComponents(cc, weightedBag{ws: answers})
	rc.endPhase(phaseEncode, encodeMark)

	// As in sumCountFromGroup: one independent WPMaxSAT instance per
	// component, fanned out and merged by component index.
	type compResult struct{ minF, maxF, negOffset int64 }
	results := make([]compResult, split.count())
	err := forEach(ctx, e.parallelism(), split.count(), func(ctx context.Context, ci int) error {
		encodeMark := startPhase()
		_, esp := obsv.StartSpan(ctx, "core.encode")
		facts, idx := split.component(ci)
		enc := newEncoder(cc, facts)
		var negOffset int64
		for _, ui := range idx {
			g := uncertain[ui]
			// v^b ↔ ⋀_j z_j^b where z_j^b ↔ witness j broken.
			zs := make([]cnf.Lit, len(g.witnesses))
			for i, facts := range g.witnesses {
				zs[i] = enc.brokenLit(facts)
			}
			var vb cnf.Lit
			if len(zs) == 1 {
				vb = zs[0]
			} else {
				vb = cnf.Lit(enc.formula.NewVar())
				// vb → z_j; (⋀ z_j) → vb.
				back := make([]cnf.Lit, 0, len(zs)+1)
				back = append(back, vb)
				for _, z := range zs {
					enc.formula.AddHard(vb.Neg(), z)
					back = append(back, z.Neg())
				}
				enc.formula.AddHard(back...)
			}
			// β^b: falsified iff the answer b is present in the repair.
			switch {
			case op == cq.CountDistinct:
				enc.formula.AddSoft(1, vb)
			case g.value.AsInt() > 0:
				enc.formula.AddSoft(g.value.AsInt(), vb)
			default:
				w := -g.value.AsInt()
				enc.formula.AddSoft(w, vb.Neg())
				negOffset += w
			}
		}
		ce := rc.component(encodeMark, esp, enc.formula, len(facts), len(idx))

		minF, maxF, err := e.solveBothDirections(ctx, enc.formula, rc, ce)
		if err != nil {
			return err
		}
		results[ci] = compResult{minF: minF, maxF: maxF, negOffset: negOffset}
		return nil
	})
	if err != nil {
		return Range{}, err
	}
	var minFTotal, maxFTotal, negOffset int64
	for _, r := range results {
		minFTotal += r.minF
		maxFTotal += r.maxF
		negOffset += r.negOffset
	}
	return Range{
		GLB: db.Int(base + minFTotal - negOffset),
		LUB: db.Int(base + maxFTotal - negOffset),
	}, nil
}

func distinctContribution(op cq.AggOp, v db.Value) int64 {
	if op == cq.CountDistinct {
		return 1
	}
	return v.AsInt()
}

// solveBothDirections solves the WPMaxSAT instance for the glb direction
// (maximize satisfied soft weight, i.e. minimize falsified weight) and —
// via Kügel's CNF-negation — the lub direction (minimize satisfied, i.e.
// maximize falsified). It returns (minFalsified, maxFalsified). Both
// directions take the one solve path, maxsat.SolveContext: on f, and on
// f.NegateSoft(). The negation is not counted in the CNF sizes, which
// measure the reduction's formula.
func (e *Engine) solveBothDirections(ctx context.Context, f *cnf.Formula, rc *recorder, ce *obsv.ComponentExplain) (minF, maxF int64, err error) {
	res, err := e.runMaxSAT(ctx, f, rc, ce, "glb")
	if err != nil {
		return 0, 0, err
	}
	minF = f.TotalSoftWeight() - res.Optimum
	res, err = e.runMaxSAT(ctx, f.NegateSoft(), rc, ce, "lub")
	if err != nil {
		return 0, 0, err
	}
	return minF, res.Optimum, nil
}

// runMaxSAT times and accounts one direction's solve.
func (e *Engine) runMaxSAT(ctx context.Context, f *cnf.Formula, rc *recorder, ce *obsv.ComponentExplain, dir string) (maxsat.Result, error) {
	pm := startPhase()
	res, err := maxsat.SolveContext(ctx, f, e.opts.MaxSAT)
	d := rc.endPhase(phaseSolve, pm)
	rc.solved(res.SATCalls, err == nil)
	ce.AddDirection(dir, e.opts.MaxSAT.Algorithm().String(), res.SATCalls, res.Conflicts, d)
	if err != nil {
		return res, mapSolveErr(err)
	}
	if !res.Satisfiable {
		return res, fmt.Errorf("core: hard clauses unsatisfiable; every instance must have a repair (internal bug)")
	}
	return res, nil
}
