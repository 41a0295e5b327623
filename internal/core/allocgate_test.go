package core

import (
	"testing"

	"aggcavsat/internal/medigap"
	"aggcavsat/internal/tpch"
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

// scalarAllocGrowth caps how the allocations of one warm scalar call
// grow with the data: a TPC-H scalar query at sf 0.01 may make at most
// this many times the allocations of the same call at sf 0.001, while
// its witnesses grow 10–14×. The witness bag, its groups and the
// component split are flat arrays, so only their doublings and slabs
// grow with the witness count.
const scalarAllocGrowth = 2

// TestWarmScalarAllocsScale is the allocation gate over data size: with
// the engine warm and sequential, a Q1′ and a Q3′ call (keys mode, 10%
// inconsistency) at sf 0.01 stay within scalarAllocGrowth times their
// allocations at sf 0.001.
func TestWarmScalarAllocsScale(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an sf 0.01 instance")
	}
	warmAllocs := func(sf float64, name string) float64 {
		in, err := tpch.DemoInstance(sf, 10, 2022)
		if err != nil {
			t.Fatal(err)
		}
		tq, err := tpch.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := tq.Translate()
		if err != nil {
			t.Fatal(err)
		}
		q := tr.Aggs[0].Query
		eng, err := New(in, Options{Mode: KeysMode, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.RangeAnswers(q); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := eng.RangeAnswers(q); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, name := range []string{"Q1'", "Q3'"} {
		small, large := warmAllocs(0.001, name), warmAllocs(0.01, name)
		t.Logf("%s: %.0f allocs per warm call at sf 0.001, %.0f at sf 0.01 (%.2f×)", name, small, large, large/small)
		if large > scalarAllocGrowth*small {
			t.Errorf("%s: %.0f allocs at sf 0.01, more than %d× the %.0f at sf 0.001", name, large, scalarAllocGrowth, small)
		}
	}
}
