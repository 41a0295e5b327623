package core

import (
	"context"
	"slices"

	"aggcavsat/internal/cnf"
	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
	"aggcavsat/internal/maxsat"
	"aggcavsat/internal/obsv"
	"aggcavsat/internal/sat"
)

// ConsistentAnswers computes CONS(q) for a union of conjunctive queries:
// the answers present in q(J) for every repair J. This is the CAvSAT
// (SAT 2019) reduction the paper builds Algorithm 2 on: an answer b is
// consistent iff the hard repair clauses together with "every witness of
// b is broken" are unsatisfiable.
func (e *Engine) ConsistentAnswers(u cq.UCQ) ([]db.Tuple, Stats, error) {
	return e.ConsistentAnswersContext(context.Background(), u)
}

// ConsistentAnswersContext is ConsistentAnswers under a context that may
// carry an obsv.Tracer.
func (e *Engine) ConsistentAnswersContext(ctx context.Context, u cq.UCQ) ([]db.Tuple, Stats, error) {
	if err := u.Validate(e.in.Schema()); err != nil {
		return nil, Stats{}, err
	}
	if e.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.opts.Timeout)
		defer cancel()
	}
	ctx, rc := e.begin(ctx, "consistent_answers", u.String(), "query.consistent_answers")
	out, err := e.consistentAnswers(ctx, u, rc)
	var answers []GroupAnswer
	if err == nil {
		answers = make([]GroupAnswer, len(out))
		for i, t := range out {
			answers[i] = GroupAnswer{Key: t}
		}
	}
	return out, e.end(ctx, rc, answers, err), err
}

func (e *Engine) consistentAnswers(ctx context.Context, u cq.UCQ, rc *recorder) ([]db.Tuple, error) {
	// Only the existence of an all-safe witness matters here (it makes
	// its answer consistent), so the consistent part is folded.
	arity := len(u.Disjuncts[0].Head)
	groups, err := e.witnesses(ctx, u, true, arity, rc)
	if err != nil {
		return nil, err
	}
	rc.grouped(len(groups))
	consistent, err := e.consistentGroups(ctx, groups, rc)
	if err != nil {
		return nil, err
	}
	var out []db.Tuple
	for i, g := range groups {
		if consistent[i] {
			out = append(out, g.Key)
		}
	}
	return out, nil
}

// consistentGroups reports, for each witness group (one candidate answer
// of the underlying query), whether it is a consistent answer. Groups
// with a fully safe witness (folded, or materialized when the bag was
// not folded) are accepted without a check. In keys mode group
// elimination decides the rest (eliminateCandidates); only a candidate
// it declines, and every candidate in DC mode, takes the SAT check, all
// of them sharing one incremental SAT solver with a fresh activation
// literal per candidate.
func (e *Engine) consistentGroups(ctx context.Context, groups []cq.WitnessGroup, rc *recorder) ([]bool, error) {
	cc := e.constraintCtx(ctx, rc)
	_, csp := obsv.StartSpan(ctx, "core.consistent_groups")
	defer csp.End()

	out := make([]bool, len(groups))
	encodeMark := startPhase()

	// Deduplicate witness fact sets per group and apply the safe-witness
	// shortcut.
	var todo []consCandidate
	var seed []db.FactID
	for i, g := range groups {
		safe := g.Fold.Rows > 0
		var sets [][]db.FactID
		if !safe {
			sets = dedupFactSets(g.Witnesses)
			for _, fs := range sets {
				if cc.allSafe(fs) {
					safe = true
					break
				}
			}
		}
		if safe {
			out[i] = true
			rc.skip()
			continue
		}
		todo = append(todo, consCandidate{index: i, factSets: sets})
		for _, fs := range sets {
			seed = append(seed, fs...)
		}
	}
	if len(todo) == 0 {
		rc.endPhase(phaseEncode, encodeMark)
		return out, nil
	}
	if csp != nil {
		csp.SetInt("groups", int64(len(groups)))
		csp.SetInt("checked", int64(len(todo)))
	}

	checked := len(todo)
	var shape elimShape
	if cc.mode == KeysMode {
		declined, sh, err := e.eliminateCandidates(ctx, cc, todo, out)
		if err != nil {
			return nil, err
		}
		if len(declined) == 0 {
			size := keysHardSize(cc, seed)
			rc.eliminated(encodeMark, "consistency", size.vars, checked, size, sh)
			return out, nil
		}
		todo, shape = declined, sh
	}

	// The SAT check runs over the closure of every checked candidate,
	// so the formula, its counted size and its cached base do not depend
	// on which candidates elimination decided.
	closure := cc.closure(seed)
	var enc *encoder
	var base *maxsat.HardBase
	var baseHit bool
	if e.incremental() {
		// Shards clone the cached hard base instead of each re-adding
		// the shared formula clause by clause; repeated calls over the
		// same closure (Algorithm 2 on similar queries) skip the encode.
		enc, base, baseHit = e.componentBase(cc, closure)
	} else {
		enc = newEncoder(cc, closure)
	}
	ce := rc.component(encodeMark, nil, enc.formula, len(closure), checked, baseHit)
	if len(todo) < checked {
		ce.addElimination("consistency", shape)
	}
	if csp != nil {
		csp.SetInt("sat_checked", int64(len(todo)))
	}

	// Shard the candidates across the worker pool in contiguous chunks:
	// each shard owns an incremental solver over the shared formula
	// (read-only after newEncoder) and checks its candidates against it.
	// With one shard this is exactly the classic single-solver loop, so
	// sequential runs keep the full learnt-clause reuse across
	// candidates. Shards write disjoint out[...] slots, so the verdicts
	// are identical and in place regardless of scheduling.
	shards := min(e.parallelism(), len(todo))
	per := (len(todo) + shards - 1) / shards
	solveMark := startPhase()
	err := forEach(ctx, shards, shards, func(ctx context.Context, w int) error {
		lo := w * per
		hi := min(lo+per, len(todo))
		if lo >= hi {
			return nil
		}
		return e.checkCandidates(ctx, enc, base, todo[lo:hi], out, rc)
	})
	sd := rc.endPhase(phaseSolve, solveMark)
	// Each candidate costs exactly one incremental Solve call.
	ce.addDirection("consistency", "sat", maxsat.Result{SATCalls: int64(len(todo))}, sd)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// eliminateCandidates decides the candidates by group elimination. A
// candidate b is a consistent answer iff every repair keeps some
// witness of b, that is iff the minimum over the repairs of the number
// of b's witnesses present is positive: the minimum falsified weight
// of its fact sets at weight 1. They split into independent components
// whose minima add up, so b is consistent iff some component's minimum
// is positive, and the first such component settles it. out[p.index]
// is set for each candidate shown consistent; the candidates returned
// are the undecided ones some of whose components need a table over
// the budget, in todo order. shape is the widest elimination run.
//
// The candidates are shared across the worker pool in contiguous
// shards, each with its own kernel scratch.
func (e *Engine) eliminateCandidates(ctx context.Context, cc *constraintContext, todo []consCandidate, out []bool) (declined []consCandidate, shape elimShape, err error) {
	shards := min(e.parallelism(), len(todo))
	per := (len(todo) + shards - 1) / shards
	over := make([][]consCandidate, shards)
	shapes := make([]elimShape, shards)
	err = forEach(ctx, shards, shards, func(ctx context.Context, w int) error {
		el := eliminator{cc: cc, budget: e.elimBudget}
		var ws []weightedWitness
		for i, p := range todo[min(w*per, len(todo)):min((w+1)*per, len(todo))] {
			if i%64 == 63 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			ws = ws[:0]
			for _, fs := range p.factSets {
				ws = append(ws, weightedWitness{facts: fs, weight: 1})
			}
			el.ws = ws
			split := splitComponents(cc, p.factSets)
			consistent, declined := false, false
			for ci, idx := range split.groups {
				minF, _, sh, ok := el.solve(split.facts[ci], idx)
				if !ok {
					declined = true
					continue
				}
				shapes[w] = shapes[w].widest(sh)
				if minF > 0 {
					consistent = true
					break
				}
			}
			switch {
			case consistent:
				out[p.index] = true
			case declined:
				over[w] = append(over[w], p)
			}
		}
		return nil
	})
	for w := range over {
		declined = append(declined, over[w]...)
		shape = shape.widest(shapes[w])
	}
	return declined, shape, err
}

// consCandidate is one not-obviously-consistent answer of the underlying
// query, awaiting its Algorithm-2 check.
type consCandidate struct {
	index    int
	factSets [][]db.FactID
}

// checkCandidates runs the consistency check for a slice of candidates
// on a fresh incremental solver seeded with the shared hard formula.
// Activation literals a_b → (witness broken) are added per candidate;
// out[p.index] receives the verdict (indices are disjoint across
// shards, so no synchronization is needed on the writes).
func (e *Engine) checkCandidates(ctx context.Context, enc *encoder, base *maxsat.HardBase, todo []consCandidate, out []bool, rc *recorder) error {
	var solver *sat.Solver
	if base != nil {
		solver = base.Fork(enc.formula)
		if !solver.Okay() {
			return errInternalUnsat()
		}
	} else {
		solver = sat.New()
		if !solver.AddFormulaHard(enc.formula) {
			return errInternalUnsat()
		}
		solver.EnsureVars(enc.formula.NumVars())
	}
	if b := e.opts.MaxSAT.ConflictBudget; b > 0 {
		solver.SetConflictBudget(b)
	}
	release := sat.StopOnDone(ctx, solver)
	defer release()

	acts := make([]cnf.Lit, len(todo))
	for ti, p := range todo {
		a := cnf.Lit(solver.NewVar())
		acts[ti] = a
		for _, fs := range p.factSets {
			clause := make([]cnf.Lit, 0, len(fs)+1)
			clause = append(clause, a.Neg())
			for _, f := range fs {
				clause = append(clause, enc.lit(f).Neg())
			}
			solver.AddClause(clause...)
		}
	}
	for ti, p := range todo {
		st := solver.Solve(acts[ti])
		rc.solved(1, false)
		switch st {
		case sat.Unsat:
			// No repair breaks all witnesses: b is consistent.
			out[p.index] = true
		case sat.Sat:
			out[p.index] = false
		default:
			return stopCause(ctx)
		}
	}
	return nil
}

// dedupFactSets drops witnesses repeating an already-seen fact set.
// Sets are bucketed by HashFactSet and verified element-wise inside each
// bucket, so a hash collision costs a comparison, never a lost candidate
// clause. The evaluator emits fact sets sorted, so they are hashed in
// place; only an unsorted set is sorted, on a copy.
func dedupFactSets(ws []cq.Witness) [][]db.FactID {
	byHash := make(map[uint64][]int, len(ws)) // hash → indexes into sorted
	var out [][]db.FactID
	var sorted [][]db.FactID // sorted views, aligned with out
	for _, w := range ws {
		s := w.Facts
		if !slices.IsSorted(s) {
			s = slices.Clone(s)
			slices.Sort(s)
		}
		h := db.HashFactSet(s)
		dup := false
		for _, i := range byHash[h] {
			if slices.Equal(sorted[i], s) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		byHash[h] = append(byHash[h], len(out))
		out = append(out, w.Facts)
		sorted = append(sorted, s)
	}
	return out
}

func errInternalUnsat() error {
	return errString("core: hard repair clauses unsatisfiable (internal bug)")
}

type errString string

func (e errString) Error() string { return string(e) }
