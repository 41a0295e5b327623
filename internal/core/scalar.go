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

// witnesses evaluates the underlying query as the call's witness phase
// and partitions the witnesses by their first groupArity head values
// (cq.GroupFolded) inside the same phase. With fold, every witness made
// only of safe facts is folded into its group instead of materialized.
// The constraint context is built before the phase starts, so its
// allocations are not counted as the witness phase's.
func (e *Engine) witnesses(ctx context.Context, u cq.UCQ, fold bool, groupArity int, rc *recorder) ([]cq.WitnessGroup, error) {
	var safe func(db.FactID) bool
	if fold {
		safe = e.constraintCtx(ctx, rc).safe
	}
	_, sp := obsv.StartSpan(ctx, "cq.witness")
	pm := startPhase()
	bag, folds, err := e.eval.FoldedBagCtx(ctx, u, safe, groupArity)
	var groups []cq.WitnessGroup
	if err == nil {
		groups = cq.GroupFolded(bag, folds, groupArity)
	}
	var folded int64
	for _, gf := range folds {
		folded += gf.Rows
	}
	rc.evaluated(pm, len(bag), folded)
	if sp != nil {
		sp.SetInt("witnesses", int64(len(bag)))
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

// weightedWitness is a witness prepared for Reduction IV.1: the clause
// weight w_j = m_j · |q*(W_j)| and the sign of the aggregated value.
type weightedWitness struct {
	facts    []db.FactID
	weight   int64
	negative bool
}

// prepareWitnesses turns the witness bag into weighted witnesses for
// COUNT(*) (weight = multiplicity), COUNT(A) (multiplicity of non-NULL
// answers) or SUM(A) (m_j · |value|, sign split; zero values dropped).
func prepareWitnesses(op cq.AggOp, bag []cq.Witness) ([]weightedWitness, error) {
	out := make([]weightedWitness, 0, len(bag))
	for _, w := range bag {
		switch op {
		case cq.CountStar:
			out = append(out, weightedWitness{facts: w.Facts, weight: w.Mult})
		case cq.Count:
			if len(w.Answer) != 1 {
				return nil, fmt.Errorf("core: COUNT(A) witness with %d answer values", len(w.Answer))
			}
			if w.Answer[0].IsNull() {
				continue
			}
			out = append(out, weightedWitness{facts: w.Facts, weight: w.Mult})
		case cq.Sum:
			if len(w.Answer) != 1 {
				return nil, fmt.Errorf("core: SUM(A) witness with %d answer values", len(w.Answer))
			}
			v := w.Answer[0]
			if v.IsNull() {
				continue
			}
			if v.Kind() != db.KindInt {
				return nil, errNonIntSum(v)
			}
			a := v.AsInt()
			if a == 0 {
				continue
			}
			mag := a
			if a < 0 {
				mag = -a // stays negative for MinInt64
			}
			weight, ok := cq.MulInt64(w.Mult, mag)
			if !ok || weight < 0 {
				return nil, errOverflow(op, "witness weight")
			}
			out = append(out, weightedWitness{facts: w.Facts, weight: weight, negative: a < 0})
		default:
			return nil, fmt.Errorf("core: prepareWitnesses on %s", op)
		}
	}
	return out, nil
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
	for _, w := range unsafe {
		var ok bool
		if total, ok = cq.AddInt64(total, w.weight); !ok {
			return Range{}, errOverflow(op, "total soft weight")
		}
		if w.negative {
			negOffset += w.weight
		}
	}

	if len(unsafe) == 0 {
		rc.endPhase(phaseEncode, encodeMark)
		rc.skip()
		return Range{GLB: db.Int(base), LUB: db.Int(base), FromConsistentPart: true}, nil
	}

	// The hard-clause graph decomposes into independent components
	// (disjoint key-equal groups / violation clusters); answer each
	// separately and sum the falsified weights.
	witnessFacts := make([][]db.FactID, len(unsafe))
	for i, w := range unsafe {
		witnessFacts[i] = w.facts
	}
	split := splitComponents(cc, witnessFacts)
	minFTotal, maxFTotal, solve := e.eliminateComponents(cc, split, unsafe, rc)
	rc.endPhase(phaseEncode, encodeMark)

	// The remaining components are independent WPMaxSAT instances:
	// encode and solve each on the worker pool, then sum the
	// per-component results (the sum is order-independent, and the
	// per-slot writes keep the accounting deterministic).
	type compResult struct{ minF, maxF int64 }
	results := make([]compResult, len(solve))
	err = forEach(ctx, e.parallelism(), len(solve), func(ctx context.Context, si int) error {
		ci := solve[si]
		minF, maxF, err := e.solveComponent(ctx, cc, split.facts[ci], unsafe, split.groups[ci], rc)
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
// idx of ws — and solves it in both directions, returning the minimum
// and maximum falsified weight.
func (e *Engine) solveComponent(ctx context.Context, cc *constraintContext, facts []db.FactID, ws []weightedWitness, idx []int, rc *recorder) (minF, maxF int64, err error) {
	encodeMark := startPhase()
	_, esp := obsv.StartSpan(ctx, "core.encode")
	var enc *encoder
	var base *maxsat.HardBase
	var baseHit bool
	if e.incremental() {
		enc, base, baseHit = e.componentBase(cc, facts)
	} else {
		enc = newEncoder(cc, facts)
	}
	enc.addWitnesses(ws, idx)
	ce := rc.component(encodeMark, esp, enc.formula, len(facts), len(idx), baseHit)
	return e.solveBothDirections(ctx, enc.formula, base, rc, ce)
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
	answerFacts := make([][]db.FactID, len(uncertain))
	for i, g := range uncertain {
		for _, facts := range g.witnesses {
			answerFacts[i] = append(answerFacts[i], facts...)
		}
	}
	split := splitComponents(cc, answerFacts)
	rc.endPhase(phaseEncode, encodeMark)

	// As in sumCountFromBag: one independent WPMaxSAT instance per
	// component, fanned out and merged by component index.
	type compResult struct{ minF, maxF, negOffset int64 }
	results := make([]compResult, len(split.groups))
	err := forEach(ctx, e.parallelism(), len(split.groups), func(ctx context.Context, ci int) error {
		encodeMark := startPhase()
		_, esp := obsv.StartSpan(ctx, "core.encode")
		var enc *encoder
		var base *maxsat.HardBase
		var baseHit bool
		if e.incremental() {
			enc, base, baseHit = e.componentBase(cc, split.facts[ci])
		} else {
			enc = newEncoder(cc, split.facts[ci])
		}
		var negOffset int64
		for _, ui := range split.groups[ci] {
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
		ce := rc.component(encodeMark, esp, enc.formula, len(split.facts[ci]), len(split.groups[ci]), baseHit)

		minF, maxF, err := e.solveBothDirections(ctx, enc.formula, base, rc, ce)
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
// maximize falsified). It returns (minFalsified, maxFalsified).
//
// On the incremental path both directions run over one maxsat.Instance
// sharing a single solver base (cloned per algorithm run), seeded from
// the component's cached HardBase when the caller has one; the negation
// is a weight view, so no negated formula is materialized. The external
// solver cannot share a base: it gets one WCNF file per run, with an
// explicit NegateSoft copy for the lub direction.
func (e *Engine) solveBothDirections(ctx context.Context, f *cnf.Formula, base *maxsat.HardBase, rc *recorder, ce *ComponentExplain) (minF, maxF int64, err error) {
	total := f.TotalSoftWeight()

	if e.incremental() {
		inst := maxsat.NewInstance(f, base, e.opts.MaxSAT)
		// Hand learnt clauses back to the component's cached base (when
		// provably sound) so sibling groups and later queries start from
		// them.
		defer inst.Release()
		res, err := e.runInstance(ctx, inst.SolveMin, rc, ce, "glb")
		if err != nil {
			return 0, 0, err
		}
		minF = total - res.Optimum
		res, err = e.runInstance(ctx, inst.SolveMax, rc, ce, "lub")
		if err != nil {
			return 0, 0, err
		}
		return minF, res.Optimum, nil
	}

	res, err := e.runMaxSAT(ctx, f, rc, ce, "glb")
	if err != nil {
		return 0, 0, err
	}
	minF = total - res.Optimum
	negated := f.NegateSoft()
	rc.absorbFormula(negated)
	res, err = e.runMaxSAT(ctx, negated, rc, ce, "lub")
	if err != nil {
		return 0, 0, err
	}
	maxF = res.Optimum
	return minF, maxF, nil
}

// runInstance times and accounts one direction of an incremental solve,
// mirroring runMaxSAT's bookkeeping and error mapping.
func (e *Engine) runInstance(ctx context.Context, solve func(context.Context) (maxsat.Result, error), rc *recorder, ce *ComponentExplain, dir string) (maxsat.Result, error) {
	pm := startPhase()
	res, err := solve(ctx)
	d := rc.endPhase(phaseSolve, pm)
	rc.solved(res.SATCalls, err == nil)
	ce.addDirection(dir, res.Algorithm.String(), res, d)
	if err != nil {
		return res, mapSolveErr(err)
	}
	if !res.Satisfiable {
		return res, fmt.Errorf("core: hard clauses unsatisfiable; every instance must have a repair (internal bug)")
	}
	return res, nil
}

func (e *Engine) runMaxSAT(ctx context.Context, f *cnf.Formula, rc *recorder, ce *ComponentExplain, dir string) (maxsat.Result, error) {
	pm := startPhase()
	res, err := maxsat.SolveContext(ctx, f, e.opts.MaxSAT)
	d := rc.endPhase(phaseSolve, pm)
	rc.solved(res.SATCalls, err == nil)
	ce.addDirection(dir, res.Algorithm.String(), res, d)
	if err != nil {
		return res, mapSolveErr(err)
	}
	if !res.Satisfiable {
		return res, fmt.Errorf("core: hard clauses unsatisfiable; every instance must have a repair (internal bug)")
	}
	return res, nil
}
