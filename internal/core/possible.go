package core

import (
	"time"

	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
)

// PossibleAnswers computes the answers of a union of conjunctive
// queries that appear in q(J) for at least one repair J (the dual of
// ConsistentAnswers; together they bracket query answering under
// inconsistency).
//
// No SAT solving is needed: an answer is possible iff it has at least
// one witness that is internally consistent — such a witness extends to
// a repair (every consistent subset of the instance is contained in
// some maximal consistent subset), while an internally inconsistent
// witness is contained in no repair at all.
func (e *Engine) PossibleAnswers(u cq.UCQ) ([]db.Tuple, Stats, error) {
	var stats Stats
	if err := u.Validate(e.in.Schema()); err != nil {
		return nil, stats, err
	}
	ctx, built := e.context()
	if built {
		stats.ConstraintTime = ctx.buildTime
	}

	start := time.Now()
	bag := e.eval.WitnessBag(u)
	stats.WitnessTime += time.Since(start)

	arity := 0
	if len(bag) > 0 {
		arity = len(bag[0].Answer)
	}
	groups := cq.GroupWitnesses(bag, arity)
	var out []db.Tuple
	encodeStart := time.Now()
	for _, g := range groups {
		for _, w := range g.Witnesses {
			if e.witnessConsistent(ctx, w.Facts) {
				out = append(out, g.Key)
				break
			}
		}
	}
	stats.EncodeTime += time.Since(encodeStart)
	return out, stats, nil
}

// witnessConsistent reports whether the fact set satisfies the engine's
// constraints on its own.
func (e *Engine) witnessConsistent(ctx *constraintContext, facts []db.FactID) bool {
	switch ctx.mode {
	case KeysMode:
		// No two facts may share a key-equal group.
		seen := map[int]bool{}
		for _, f := range facts {
			gi := ctx.groupOf[f]
			if seen[gi] {
				return false
			}
			seen[gi] = true
		}
		return true
	default:
		// No minimal violation may be contained in the witness. Facts
		// are sorted, so subset checks are linear.
		inSet := map[db.FactID]bool{}
		for _, f := range facts {
			inSet[f] = true
		}
		for _, f := range facts {
			if ctx.nearIdx.SelfViolating[f] {
				return false
			}
			// Violations containing f are f's near-violations plus f.
			for _, near := range ctx.nearIdx.ByFact[f] {
				all := true
				for _, d := range near {
					if !inSet[d] {
						all = false
						break
					}
				}
				if all {
					return false
				}
			}
		}
		return true
	}
}
