package core

import (
	"testing"

	"aggcavsat/internal/medigap"
)

// q12mAllocBound caps the allocations of one warm Medigap Q12m call
// (grouped COUNT(A) over the PT ⋈ PR join, DC mode) at scale 0.1,
// sequential. Nearly every witnessing assignment is made of safe facts
// and folds inside the evaluator without allocating, so the count
// tracks groups and conflicting witnesses, not the join size.
const q12mAllocBound = 200

// TestWarmStatementAllocs is the allocation gate: with the engine warm
// (constraint context, plans and hash indexes built by a first call),
// one Q12m call must stay under q12mAllocBound allocations.
func TestWarmStatementAllocs(t *testing.T) {
	in, err := medigap.Generate(0.1, 100)
	if err != nil {
		t.Fatal(err)
	}
	dcs, err := medigap.Constraints(in.Schema())
	if err != nil {
		t.Fatal(err)
	}
	var q12m medigap.Query
	for _, q := range medigap.Queries() {
		if q.Name == "Q12m" {
			q12m = q
		}
	}
	tr, err := q12m.Translate()
	if err != nil {
		t.Fatal(err)
	}
	q := tr.Aggs[0].Query
	eng, err := New(in, Options{Mode: DCMode, DCs: dcs, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.RangeAnswers(q)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := eng.RangeAnswers(q); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Q12m: %d groups, %d folded assignments, %.0f allocs per warm call", len(rep.Answers), rep.Stats.FoldedAssignments, allocs)
	if allocs > q12mAllocBound {
		t.Errorf("warm Q12m call: %.0f allocs, bound %d", allocs, q12mAllocBound)
	}
}
