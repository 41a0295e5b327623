package core

import (
	"context"
	"errors"
	"fmt"

	"aggcavsat/internal/conquer"
	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
	"aggcavsat/internal/obsv"
)

// rewriteRange answers the call through the planner's compiled
// rewriting: Plan.Execute over the engine's instance with the planner's
// memoized indexes and the engine worker pool. The whole execution is
// one "rewrite" phase — the rewriting has no witness/encode/solve split
// to attribute — and lands in Stats.RewriteTime.
//
// Two classes of errors come back: conquer.ErrNotInClass marks a
// data-dependent rejection (negative or non-integer SUM values, a
// scalar MIN/MAX whose result can be empty) that the caller may turn
// into a SAT fallback; anything else is a genuine failure (typically a
// dead context) mapped to the engine's typed sentinels.
func (e *Engine) rewriteRange(ctx context.Context, q cq.AggQuery, plan *conquer.Plan, rc *recorder) (*Report, error) {
	ctx, sp := obsv.StartSpan(ctx, "core.rewrite", obsv.String("op", q.Op.String()))
	pm := startPhase()
	ans, err := plan.Execute(ctx, e.in, e.planner.Indexes(), e.parallelism())
	rc.endPhase(phaseRewrite, pm)
	if sp != nil {
		sp.SetInt("answers", int64(len(ans)))
		sp.End()
	}
	if err != nil {
		if errors.Is(err, conquer.ErrNotInClass) {
			return nil, err
		}
		return nil, mapSolveErr(err)
	}
	// Scalar MIN/MAX over a possibly-empty result: the rewriting leaves
	// the adversarial endpoint NULL where the solver pins it to the
	// extremum over non-empty repairs, so the answers would diverge —
	// reject and let the caller fall back.
	if q.Scalar() && (q.Op == cq.Min || q.Op == cq.Max) {
		for _, a := range ans {
			if a.EmptyPossible {
				return nil, fmt.Errorf("%w: %s with a possibly-empty result needs the solver", conquer.ErrNotInClass, q.Op)
			}
		}
	}
	rep := &Report{Answers: make([]GroupAnswer, len(ans))}
	for i, a := range ans {
		key := a.Key
		if key == nil {
			key = db.Tuple{}
		}
		rep.Answers[i] = GroupAnswer{Key: key, Range: Range{
			GLB:                a.GLB,
			LUB:                a.LUB,
			EmptyPossible:      a.EmptyPossible,
			FromConsistentPart: a.FromConsistentPart,
		}}
	}
	return rep, nil
}
