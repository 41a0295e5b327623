package maxsat

import (
	"context"
	"fmt"
	"os"
	"sort"

	"aggcavsat/internal/cnf"
	"aggcavsat/internal/sat"
)

// solveRC2 implements core-guided Weighted Partial MaxSAT in the OLL/RC2
// style, with the three standard engineering refinements of the RC2
// solver:
//
//   - boolean lexicographic *stratification*: selectors are activated in
//     strata of descending weight, so cores never mix weights below the
//     current threshold (avoiding the weight-splitting blowup);
//   - *core trimming*: each extracted core is re-solved against itself a
//     few times, typically shrinking it by orders of magnitude before a
//     totalizer is built over it (totalizer size is quadratic in core
//     size);
//   - *lazy totalizer bounds*: a new totalizer contributes a single soft
//     selector "¬(≥2 violated)"; the next bound's selector is added only
//     when the current one exhausts its weight.
//
// The solver comes from p.fork(); RC2 extends its clause set
// (totalizers, hardening) and consumes the selector weights
// destructively, so it works on a private copy.
func solveRC2(ctx context.Context, p *problem, opts Options, tr *tracker) (Result, error) {
	s := p.fork()
	if !s.Okay() {
		return Result{Satisfiable: false}, nil
	}
	if opts.ConflictBudget > 0 {
		s.SetConflictBudget(opts.ConflictBudget)
	}
	release := sat.StopOnDone(ctx, s)
	defer release()
	weights := p.weightsCopy()
	tr.attach(AlgRC2, s)

	// totInfo tracks a lazily-bounded totalizer: outputs[bound] is the
	// output literal whose negation is the currently active selector.
	type totInfo struct {
		outputs []cnf.Lit
		bound   int
		weight  int64
	}
	tots := map[cnf.Lit]*totInfo{}

	// threshold is the current stratification level; only selectors
	// with weight >= threshold are assumed.
	threshold := maxWeight(weights)

	debug := os.Getenv("RC2_DEBUG") != ""
	var iter int
	var cost int64
	bestUB := int64(-1) // falsified weight of the best model seen
	var bestModel []bool

	// harden makes selectors hard once falsifying them would exceed the
	// best known upper bound: if weight > bestUB − cost, any solution
	// falsifying the selector is strictly worse than the incumbent
	// model, so the selector holds in every optimal solution (the RC2
	// hardening rule; it is what stops weight splitting from
	// degenerating on wide weight ranges).
	harden := func() {
		if bestUB < 0 || os.Getenv("RC2_NOHARDEN") != "" {
			return
		}
		gap := bestUB - cost
		var toHarden []cnf.Lit
		for l, w := range weights {
			if w > gap {
				toHarden = append(toHarden, l)
			}
		}
		for _, l := range toHarden {
			delete(weights, l)
			delete(tots, l) // a hardened totalizer bound never advances
			s.AddClause(l)
		}
	}

	for {
		if err := interrupted(ctx); err != nil {
			return statsOf(s), err
		}
		assumptions := activeSelectors(weights, threshold)
		iter++
		tr.step()
		if debug && iter%200 == 0 {
			fmt.Fprintf(os.Stderr, "rc2 iter=%d cost=%d thr=%d assumptions=%d conflicts=%d learnt=%d clauses=%d\n",
				iter, cost, threshold, len(assumptions), s.Stats.Conflicts, s.Stats.Learnt, s.NumClauses())
		}
		st := satSolve(ctx, s, AlgRC2, assumptions...)
		switch st {
		case sat.Unknown:
			if err := interrupted(ctx); err != nil {
				return statsOf(s), err
			}
			return statsOf(s), fmt.Errorf("%w: conflicts (rc2)", ErrBudget)
		case sat.Sat:
			// Every stratum model is an upper bound; keep the incumbent
			// best and harden against it. The incumbent, not the current
			// model, is returned at termination: hardening can retire
			// below-threshold selectors that the current model violates.
			model := s.Model()
			opt := p.score(model)
			if fals := p.total - opt; bestUB < 0 || fals < bestUB {
				bestUB = fals
				bestModel = p.trim(model)
			}
			tr.bounds(cost, bestUB)
			tr.event("model")
			harden()
			// Optimal for this stratum; descend to the next one, or
			// finish when every selector was active. At that point the
			// incumbent is optimal: either the final model satisfied
			// every live selector (falsified == cost == lower bound) or
			// hardening at gap 0 retired the rest (bestUB == cost).
			next := nextThreshold(weights, threshold)
			if next == 0 {
				return Result{
					Satisfiable:     true,
					Optimum:         p.total - bestUB,
					FalsifiedWeight: bestUB,
					Model:           bestModel,
					SATCalls:        s.Stats.Solves,
					Conflicts:       s.Stats.Conflicts,
				}, nil
			}
			threshold = next
			tr.event("stratum")
			continue
		case sat.Unsat:
			core := s.Core()
			if len(core) == 0 {
				return Result{Satisfiable: false, SATCalls: s.Stats.Solves, Conflicts: s.Stats.Conflicts}, nil
			}
			// Trim: re-solving against the core alone usually shrinks it.
			for rounds := 0; rounds < 5 && len(core) > 1; rounds++ {
				st := satSolve(ctx, s, AlgRC2, core...)
				if st != sat.Unsat {
					if err := interrupted(ctx); err != nil {
						return statsOf(s), err
					}
					return statsOf(s), fmt.Errorf("maxsat: core no longer unsat during trimming (%v)", st)
				}
				trimmed := s.Core()
				if len(trimmed) >= len(core) {
					break
				}
				core = trimmed
			}
			minW := weights[core[0]]
			for _, l := range core[1:] {
				if w := weights[l]; w < minW {
					minW = w
				}
			}
			cost += minW
			tr.bounds(cost, -1)
			tr.event("core")
			for _, l := range core {
				weights[l] -= minW
				if weights[l] != 0 {
					continue
				}
				delete(weights, l)
				// Exhausted totalizer selector: activate the next bound.
				if ti := tots[l]; ti != nil {
					delete(tots, l)
					if ti.bound+1 < len(ti.outputs) {
						ti.bound++
						sel := ti.outputs[ti.bound].Neg()
						weights[sel] += ti.weight
						tots[sel] = ti
					}
				}
			}
			if len(core) == 1 {
				// The selector is unconditionally false: make it hard.
				s.AddClause(core[0].Neg())
				continue
			}
			// Count the core's violations with a totalizer; at least
			// one is inevitable (that is what the core says), each
			// further violation costs minW.
			violated := make([]cnf.Lit, len(core))
			for i, l := range core {
				violated[i] = l.Neg()
			}
			outs := buildTotalizer(s, violated)
			ti := &totInfo{outputs: outs, bound: 1, weight: minW}
			if ti.bound < len(outs) {
				sel := outs[ti.bound].Neg()
				weights[sel] += ti.weight
				tots[sel] = ti
			}
		}
	}
}

func maxWeight(weights map[cnf.Lit]int64) int64 {
	var m int64
	for _, w := range weights {
		if w > m {
			m = w
		}
	}
	return m
}

// nextThreshold returns the next stratification level below the current
// threshold, or 0 when none remains. On weight sets with many distinct
// values (SUM instances) a per-weight descent would cost one SAT call
// per value, so the descent is geometric: each step activates roughly
// half of the remaining distinct weights (RC2's diversity heuristic,
// simplified); small tails are activated in one final stratum.
func nextThreshold(weights map[cnf.Lit]int64, threshold int64) int64 {
	distinct := map[int64]struct{}{}
	for _, w := range weights {
		if w < threshold {
			distinct[w] = struct{}{}
		}
	}
	if len(distinct) == 0 {
		return 0
	}
	below := make([]int64, 0, len(distinct))
	for w := range distinct {
		below = append(below, w)
	}
	sort.Slice(below, func(i, j int) bool { return below[i] > below[j] })
	if len(below) <= 8 {
		return below[len(below)-1] // activate the entire tail
	}
	return below[len(below)/2]
}

func activeSelectors(weights map[cnf.Lit]int64, threshold int64) []cnf.Lit {
	out := make([]cnf.Lit, 0, len(weights))
	for l, w := range weights {
		if w >= threshold {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		vi, vj := out[i].Var(), out[j].Var()
		if vi != vj {
			return vi < vj
		}
		return out[i] < out[j]
	})
	return out
}

// sortedSelectors returns all selectors in deterministic order.
func sortedSelectors(weights map[cnf.Lit]int64) []cnf.Lit {
	return activeSelectors(weights, 0)
}
