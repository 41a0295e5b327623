package core

import (
	"context"

	"aggcavsat/internal/cq"
	"aggcavsat/internal/obsv"
)

// groupedRange implements Algorithm 2: compute the consistent answers of
// the underlying query q(Z) (the consistent groups), then for each group
// b compute the scalar range of the aggregate restricted to Z = b.
//
// The implementation evaluates the underlying query once with head
// Z ++ [A] and partitions the witness bag by Z: the witnesses of the
// restricted query T(U, Z, A) ∧ Z = b are exactly the bag entries whose
// answer prefix is b, so no per-group re-evaluation is needed. For
// COUNT/SUM the all-safe witnesses arrive folded per group: they make
// the group consistent and add a constant to its range.
//
// All groups share the caller's record, so the Report's Stats
// aggregate the per-group scalar solves (SAT calls, encode/solve time)
// on top of the shared witness evaluation and consistency filtering.
func (e *Engine) groupedRange(ctx context.Context, q cq.AggQuery, rc *recorder) (*Report, error) {
	rep := &Report{}

	groups, err := e.witnesses(ctx, q.Underlying, foldable(q.Op), len(q.GroupBy), rc)
	if err != nil {
		return nil, err
	}
	rc.grouped(len(groups))
	consistent, err := e.consistentGroups(ctx, groups, rc)
	if err != nil {
		return nil, err
	}
	// Each consistent group is an independent scalar instance: fan them
	// out across the worker pool. Workers write into index-addressed
	// slots, so the merged answers keep the original group order no
	// matter how the scheduler interleaves them.
	var todo []int
	for i := range groups {
		if consistent[i] {
			todo = append(todo, i)
		}
	}
	// One span for the whole phase, not one per group: a grouped query
	// may have tens of thousands of groups, and a request trace is
	// capped (the spans after the cap would be dropped).
	ctx, gsp := obsv.StartSpan(ctx, "core.groups")
	defer gsp.End()
	gsp.SetInt("groups", int64(len(groups)))
	gsp.SetInt("solved", int64(len(todo)))
	if len(todo) == 0 {
		return rep, nil
	}
	answers := make([]GroupAnswer, len(todo))
	units := rc.startUnits()
	defer rc.endUnits(units)
	err = forEach(ctx, e.parallelism(), len(todo), func(ctx context.Context, ti int) error {
		g := groups[todo[ti]]
		ans, err := e.groupRange(ctx, q.Op, g, rc)
		if err != nil {
			return err
		}
		answers[ti] = GroupAnswer{Key: g.Key, Range: ans}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.Answers = answers
	return rep, nil
}
