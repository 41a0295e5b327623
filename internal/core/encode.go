package core

import (
	"aggcavsat/internal/cnf"
	"aggcavsat/internal/db"
)

// encoder owns the hard-clause part of a reduction: a formula whose
// satisfying assignments (restricted to the fact variables) correspond
// one-to-one to the repairs of the closure sub-instance.
type encoder struct {
	formula *cnf.Formula
	varOf   map[db.FactID]cnf.Lit // positive literal of each fact's variable
}

// newEncoder allocates one variable per closure fact and emits the hard
// clauses for the constraint mode:
//
//   - Keys (Reduction IV.1): for every key-equal group, an at-least-one
//     α-clause and pairwise at-most-one α^mn-clauses.
//   - Denial constraints (Reduction V.1): an α-clause ¬(V) for every
//     minimal violation V, and per fact the γ-clause x_i ∨ ⋁_j p_j^i with
//     θ-expressions p_j^i ↔ ⋀_{d ∈ N_j^i} x_d in CNF, enforcing
//     maximality. Self-violating facts are excluded by their unit
//     α-clause, and their γ-clause (with near-violation {f_true}) is a
//     tautology that is omitted.
func newEncoder(ctx *constraintContext, facts []db.FactID) *encoder {
	enc := &encoder{
		formula: cnf.New(0),
		varOf:   make(map[db.FactID]cnf.Lit, len(facts)),
	}
	for _, f := range facts {
		enc.varOf[f] = cnf.Lit(enc.formula.NewVar())
	}
	switch ctx.mode {
	case KeysMode:
		enc.encodeKeys(ctx, facts)
	case DCMode:
		enc.encodeDCs(ctx, facts)
	}
	return enc
}

func (enc *encoder) lit(f db.FactID) cnf.Lit { return enc.varOf[f] }

func (enc *encoder) encodeKeys(ctx *constraintContext, facts []db.FactID) {
	seenGroup := map[int]bool{}
	for _, f := range facts {
		gi := ctx.groupOf[f]
		if seenGroup[gi] {
			continue
		}
		seenGroup[gi] = true
		members := ctx.groups[gi].Facts // closure contains whole groups
		// At-least-one.
		lits := make([]cnf.Lit, len(members))
		for i, m := range members {
			lits[i] = enc.lit(m)
		}
		enc.formula.AddHard(lits...)
		// Pairwise at-most-one.
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				enc.formula.AddHard(enc.lit(members[i]).Neg(), enc.lit(members[j]).Neg())
			}
		}
	}
}

func (enc *encoder) encodeDCs(ctx *constraintContext, facts []db.FactID) {
	inClosure := make(map[db.FactID]bool, len(facts))
	for _, f := range facts {
		inClosure[f] = true
	}
	// α-clauses: one per minimal violation inside the closure. The
	// closure is a union of violation-connected components, so a
	// violation either lies fully inside or fully outside it.
	for _, v := range ctx.violations {
		if !inClosure[v[0]] {
			continue
		}
		lits := make([]cnf.Lit, len(v))
		for i, f := range v {
			lits[i] = enc.lit(f).Neg()
		}
		enc.formula.AddHard(lits...)
	}
	// γ- and θ-clauses: maximality. For fact i with near-violations
	// N_1..N_k: x_i ∨ p_1 ∨ … ∨ p_k, and p_j ↔ ⋀_{d∈N_j} x_d.
	for _, f := range facts {
		if ctx.nearIdx.SelfViolating[f] {
			continue // near-violation {f_true}: γ is a tautology
		}
		nears := ctx.nearIdx.ByFact[f]
		if len(nears) == 0 {
			// Safe fact: present in every repair.
			enc.formula.AddHard(enc.lit(f))
			continue
		}
		gamma := make([]cnf.Lit, 0, len(nears)+1)
		gamma = append(gamma, enc.lit(f))
		for _, near := range nears {
			var p cnf.Lit
			if len(near) == 1 {
				// p ↔ x_d for a single fact: use x_d directly.
				p = enc.lit(near[0])
			} else {
				p = cnf.Lit(enc.formula.NewVar())
				// p → x_d for every d; (⋀ x_d) → p.
				back := make([]cnf.Lit, 0, len(near)+1)
				back = append(back, p)
				for _, d := range near {
					enc.formula.AddHard(p.Neg(), enc.lit(d))
					back = append(back, enc.lit(d).Neg())
				}
				enc.formula.AddHard(back...)
			}
			gamma = append(gamma, p)
		}
		enc.formula.AddHard(gamma...)
	}
}

// addWitnesses adds the soft clauses of steps 2a/2b for the witnesses
// idx of ws: β_j = (⋁ ¬x_i, w_j) for a positive value, falsified iff
// the witness is present; for a negative value β_j = (y_j, w_j) with
// y_j ↔ witness present, falsified iff the witness is absent.
func (enc *encoder) addWitnesses(ws []weightedWitness, idx []int) {
	for _, wi := range idx {
		w := ws[wi]
		if w.negative {
			enc.formula.AddSoft(w.weight, enc.presentLit(w.facts))
			continue
		}
		lits := make([]cnf.Lit, len(w.facts))
		for i, f := range w.facts {
			lits[i] = enc.lit(f).Neg()
		}
		enc.formula.AddSoft(w.weight, lits...)
	}
}

// brokenLit returns a literal that is true iff the witness is broken
// (some fact absent), adding defining clauses when needed. Singleton
// witnesses reuse the fact variable (Example IV.3's optimization).
func (enc *encoder) brokenLit(facts []db.FactID) cnf.Lit {
	if len(facts) == 1 {
		return enc.lit(facts[0]).Neg()
	}
	z := cnf.Lit(enc.formula.NewVar())
	// z → ⋁ ¬x ; ¬z → x_f for every f (i.e. z ∨ x_f).
	zClause := make([]cnf.Lit, 0, len(facts)+1)
	zClause = append(zClause, z.Neg())
	for _, f := range facts {
		zClause = append(zClause, enc.lit(f).Neg())
		enc.formula.AddHard(z, enc.lit(f))
	}
	enc.formula.AddHard(zClause...)
	return z
}

// presentLit returns a literal true iff the witness is fully present
// (the y_j variable of Reduction IV.1 step 2b).
func (enc *encoder) presentLit(facts []db.FactID) cnf.Lit {
	return enc.brokenLit(facts).Neg()
}
