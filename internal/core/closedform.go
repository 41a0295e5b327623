package core

import (
	"slices"

	"aggcavsat/internal/db"
)

// Closed-form components. Under keys a repair keeps exactly one fact of
// every key-equal group, so a Reduction IV.1 component whose witnesses
// each touch at most one violating group (a group with more than one
// fact) needs no solver: the groups are independent, and each group's
// share of the falsified weight is read off by keeping each member in
// turn. The component's minimum (maximum) falsified weight is the sum
// over its groups of the smallest (largest) share — the per-block choice
// the range rewritings make (arXiv 2409.01648, 2211.04134), applied to
// one component of the SAT route.

// closedFormComponents answers every keys-mode component of split that
// the kernel takes, inline, and records them with one locked add. It
// returns their summed minimum and maximum falsified weights and the
// components left to the solver (every component in DC mode).
func (e *Engine) closedFormComponents(cc *constraintContext, split *componentSplit, ws []weightedWitness, rc *recorder) (minF, maxF int64, solve []int) {
	if cc.mode != KeysMode {
		solve = make([]int, len(split.groups))
		for ci := range solve {
			solve[ci] = ci
		}
		return 0, 0, solve
	}
	cf := closedFormer{cc: cc, ws: ws}
	var tally closedFormTally
	for ci, idx := range split.groups {
		lo, hi, ok := cf.solve(split.facts[ci], idx)
		if !ok {
			solve = append(solve, ci)
			continue
		}
		minF += lo
		maxF += hi
		formula, negation := reductionSize(cc, split.facts[ci], ws, idx)
		tally.add(formula, len(split.facts[ci]), len(idx), rc.explain)
		if !e.incremental() {
			tally.absorb(negation)
		}
	}
	rc.closedForm(&tally)
	return minF, maxF, solve
}

// closedFormer holds the scratch of the closed-form kernel, reused
// across the components of one solve unit.
type closedFormer struct {
	cc *constraintContext
	ws []weightedWitness
	// kept[i] is the weight falsified when facts[i] is the member kept of
	// its group, less the share every member of the group pays, which
	// all[i] holds at the position of the group's first member.
	kept, all []int64
}

// solve answers the component over facts (sorted, whole key-equal
// groups) holding the witnesses idx of ws. It returns the minimum and
// maximum falsified weight of the component's Reduction IV.1 instance:
// a positive witness is falsified when present, a negative one when
// absent. A witness is present iff its facts of its violating group are
// exactly one fact, the one kept; safe facts are in every repair, and a
// witness holding two facts of one group is in none. ok is false when
// some witness couples two violating groups: the component then goes to
// the solver.
//
// The caller has checked that the total soft weight fits in an int64;
// every sum below is bounded by it in absolute value.
func (c *closedFormer) solve(facts []db.FactID, idx []int) (minF, maxF int64, ok bool) {
	cc := c.cc
	c.kept = resetInt64s(c.kept, len(facts))
	c.all = resetInt64s(c.all, len(facts))
	pos := func(f db.FactID) int {
		i, _ := slices.BinarySearch(facts, f)
		return i
	}
	var always int64 // falsified in every repair
	for _, wi := range idx {
		w := &c.ws[wi]
		g, never := -1, false
		var m db.FactID
		for _, f := range w.facts {
			gi := cc.groupOf[f]
			switch {
			case cc.groupSafe[gi]:
			case g < 0:
				g, m = gi, f
			case gi != g:
				return 0, 0, false
			case f != m:
				never = true
			}
		}
		switch {
		case g < 0:
			// Only safe facts: present in every repair.
			if !w.negative {
				always += w.weight
			}
		case never:
			if w.negative {
				c.all[pos(cc.groups[g].Facts[0])] += w.weight
			}
		case w.negative:
			// Falsified unless m is kept.
			c.all[pos(cc.groups[g].Facts[0])] += w.weight
			c.kept[pos(m)] -= w.weight
		default:
			c.kept[pos(m)] += w.weight
		}
	}
	minF, maxF = always, always
	for _, f := range facts {
		members := cc.groups[cc.groupOf[f]].Facts
		if members[0] != f || len(members) == 1 {
			continue
		}
		share := c.all[pos(f)]
		lo := share + c.kept[pos(members[0])]
		hi := lo
		for _, mf := range members[1:] {
			v := share + c.kept[pos(mf)]
			lo, hi = min(lo, v), max(hi, v)
		}
		minF += lo
		maxF += hi
	}
	return minF, maxF, true
}

func resetInt64s(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// formulaSize is the size of one CNF formula, as cnf.Formula.Stats
// reports it.
type formulaSize struct{ vars, clauses int }

// reductionSize counts the variables and clauses of the Reduction IV.1
// formula the encoder builds for one keys-mode component (facts, sorted
// and made of whole key-equal groups, holding the witnesses idx of ws)
// without building it: one variable per fact, per group an at-least-one
// clause and the pairwise at-most-one clauses, one soft clause per
// witness, and a defined presence variable with its clauses per
// negative witness of several facts. negation is the size of its CNF
// negation (cnf.Formula.NegateSoft), which the per-run-formula solve
// path also builds for the lub direction.
func reductionSize(cc *constraintContext, facts []db.FactID, ws []weightedWitness, idx []int) (formula, negation formulaSize) {
	vars, hard := len(facts), 0
	for _, f := range facts {
		if members := cc.groups[cc.groupOf[f]].Facts; members[0] == f {
			k := len(members)
			hard += 1 + k*(k-1)/2
		}
	}
	negVars, negSoft := 0, 0
	for _, wi := range idx {
		n := len(ws[wi].facts)
		switch {
		case ws[wi].negative && n > 1:
			vars++
			hard += n + 1
			negSoft++
		case !ws[wi].negative && n > 1:
			negVars++
			negSoft += n + 1
		default:
			negSoft++
		}
	}
	return formulaSize{vars, hard + len(idx)}, formulaSize{vars + negVars, hard + negSoft}
}
