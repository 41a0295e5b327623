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
// aggregation query. The witness bag is computed here; grouped queries
// call scalarFromBag directly with per-group bags.
func (e *Engine) scalarRange(ctx context.Context, q cq.AggQuery, bag []cq.Witness, rc *recorder) (Range, error) {
	if bag == nil {
		_, sp := obsv.StartSpan(ctx, "cq.witness")
		pm := startPhase()
		var err error
		bag, err = e.eval.WitnessBagCtx(ctx, q.Underlying)
		rc.endWitness(pm)
		rc.witnesses(len(bag))
		if sp != nil {
			sp.SetInt("witnesses", int64(len(bag)))
			sp.End()
		}
		if err != nil {
			return Range{}, stopCause(ctx)
		}
	}
	switch q.Op {
	case cq.Min, cq.Max:
		return e.minMaxFromBag(ctx, q.Op, bag, rc)
	case cq.CountDistinct, cq.SumDistinct:
		return e.distinctFromBag(ctx, q.Op, bag, rc)
	default:
		return e.sumCountFromBag(ctx, q.Op, bag, rc)
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
				return nil, fmt.Errorf("core: SUM over non-integer value %v; scale to integers (e.g. cents) first", v)
			}
			a := v.AsInt()
			if a == 0 {
				continue
			}
			ww := weightedWitness{facts: w.Facts, weight: w.Mult * abs64(a), negative: a < 0}
			out = append(out, ww)
		default:
			return nil, fmt.Errorf("core: prepareWitnesses on %s", op)
		}
	}
	return out, nil
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// sumCountFromBag implements Reduction IV.1 (steps 2a/2b) and the
// Proposition IV.1 decoding for COUNT(*), COUNT(A) and SUM(A).
func (e *Engine) sumCountFromBag(ctx context.Context, op cq.AggOp, bag []cq.Witness, rc *recorder) (Range, error) {
	cc := e.constraintCtx(ctx, rc)

	ws, err := prepareWitnesses(op, bag)
	if err != nil {
		return Range{}, err
	}

	encodeMark := startPhase()
	// Fold consistent-part witnesses into a constant: a witness made of
	// safe facts survives in every repair, contributing ±w always.
	var base int64
	unsafe := ws[:0]
	for _, w := range ws {
		if cc.allSafe(w.facts) {
			if w.negative {
				base -= w.weight
			} else {
				base += w.weight
			}
			continue
		}
		unsafe = append(unsafe, w)
	}
	if len(unsafe) == 0 {
		rc.endEncode(encodeMark)
		rc.skip()
		return Range{GLB: db.Int(base), LUB: db.Int(base), FromConsistentPart: true}, nil
	}

	// The hard-clause graph decomposes into independent components
	// (disjoint key-equal groups / violation clusters); encode and
	// solve each separately and sum the falsified weights.
	witnessFacts := make([][]db.FactID, len(unsafe))
	for i, w := range unsafe {
		witnessFacts[i] = w.facts
	}
	split := splitComponents(cc, witnessFacts)
	rc.endEncode(encodeMark)

	// Components are independent WPMaxSAT instances: encode and solve
	// each on the worker pool, then sum the per-component results (the
	// sum is order-independent, and the per-slot writes keep the
	// accounting deterministic).
	type compResult struct{ minF, maxF, negOffset int64 }
	results := make([]compResult, len(split.groups))
	err = forEach(ctx, e.parallelism(), len(split.groups), func(ctx context.Context, ci int) error {
		encodeMark := startPhase()
		_, esp := obsv.StartSpan(ctx, "core.encode")
		var enc *encoder
		var base *maxsat.HardBase
		var baseHit bool
		if e.incremental() {
			enc, base, baseHit = e.componentBase(cc, split.facts[ci])
			rc.baseHit(baseHit)
		} else {
			enc = newEncoder(cc, split.facts[ci])
		}
		var negOffset int64
		// Soft clauses: step 2a/2b.
		for _, wi := range split.groups[ci] {
			w := unsafe[wi]
			if !w.negative {
				// β_j = (⋁ ¬x_i, w_j): falsified iff the witness is
				// present.
				lits := make([]cnf.Lit, len(w.facts))
				for i, f := range w.facts {
					lits[i] = enc.lit(f).Neg()
				}
				enc.formula.AddSoft(w.weight, lits...)
				continue
			}
			// Negative value: β_j = (y_j, w_j) with y_j ↔ witness
			// present; falsified iff the witness is absent.
			y := enc.presentLit(w.facts)
			enc.formula.AddSoft(w.weight, y)
			negOffset += w.weight
		}
		ed := rc.endEncode(encodeMark)
		rc.absorbFormula(enc.formula)
		endEncodeSpan(esp, enc.formula)
		ce := rc.exp.component(len(split.facts[ci]), len(split.groups[ci]))
		st := enc.formula.Stats()
		ce.setEncode(st.Vars, st.Clauses, baseHit, ed)

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

	// Proposition IV.1: falsified weight F = agg + negOffset, so
	// glb = base + minF − negOffset and lub = base + maxF − negOffset.
	return Range{
		GLB: db.Int(base + minFTotal - negOffset),
		LUB: db.Int(base + maxFTotal - negOffset),
	}, nil
}

// distinctFromBag implements Algorithm 1 for COUNT(DISTINCT A) and
// SUM(DISTINCT A).
func (e *Engine) distinctFromBag(ctx context.Context, op cq.AggOp, bag []cq.Witness, rc *recorder) (Range, error) {
	cc := e.constraintCtx(ctx, rc)

	encodeMark := startPhase()
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
		rc.endEncode(encodeMark)
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
	rc.endEncode(encodeMark)

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
			rc.baseHit(baseHit)
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
		ed := rc.endEncode(encodeMark)
		rc.absorbFormula(enc.formula)
		endEncodeSpan(esp, enc.formula)
		ce := rc.exp.component(len(split.facts[ci]), len(split.groups[ci]))
		st := enc.formula.Stats()
		ce.setEncode(st.Vars, st.Clauses, baseHit, ed)

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
	d := rc.endSolve(pm)
	rc.satCalls(res.SATCalls)
	ce.addDirection(dir, res.Algorithm.String(), res, d)
	if err != nil {
		return res, mapSolveErr(err)
	}
	rc.maxsatRun()
	if !res.Satisfiable {
		return res, fmt.Errorf("core: hard clauses unsatisfiable; every instance must have a repair (internal bug)")
	}
	return res, nil
}

func (e *Engine) runMaxSAT(ctx context.Context, f *cnf.Formula, rc *recorder, ce *ComponentExplain, dir string) (maxsat.Result, error) {
	pm := startPhase()
	res, err := maxsat.SolveContext(ctx, f, e.opts.MaxSAT)
	d := rc.endSolve(pm)
	rc.satCalls(res.SATCalls)
	ce.addDirection(dir, res.Algorithm.String(), res, d)
	if err != nil {
		return res, mapSolveErr(err)
	}
	rc.maxsatRun()
	if !res.Satisfiable {
		return res, fmt.Errorf("core: hard clauses unsatisfiable; every instance must have a repair (internal bug)")
	}
	return res, nil
}
