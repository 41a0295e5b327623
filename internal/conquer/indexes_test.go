package conquer

import (
	"context"
	"testing"

	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
)

// TestIndexesMemoized: a relation's key partition is built once per
// instance version — repeated calls, also through another Indexes,
// return the identical partition, and appending a fact invalidates it;
// the new partition finds the appended fact.
func TestIndexesMemoized(t *testing.T) {
	in := randomTreeInstance(ptrRng(3))
	rel := in.Schema().Relation("C")
	ix := NewIndexes(in)
	p1 := ix.keyPartition(rel)
	if p2 := NewIndexes(in).keyPartition(rel); p2 != p1 {
		t.Fatal("key partition rebuilt despite unchanged instance")
	}
	id := in.MustInsert("C", db.Int(77), db.Str("A"))
	p3 := ix.keyPartition(rel)
	if p3 == p1 {
		t.Fatal("key partition not rebuilt after append")
	}
	c, ok := in.Dict().CellOf(db.Int(77))
	if !ok {
		t.Fatal("cell of Int(77) unavailable")
	}
	if got := p3.Lookup([]db.Cell{c}); len(got) != 1 || got[0] != id {
		t.Fatalf("appended fact not indexed: %v", got)
	}
}

// TestBaselineReuseStable: a Baseline answers the same query identically
// across repeated calls and across interleaved other queries — the memo
// must never leak state between shapes.
func TestBaselineReuseStable(t *testing.T) {
	in := randomTreeInstance(ptrRng(19))
	b := New(in)
	q := treeQuery(cq.Sum, true, true, false)
	first, err := b.RangeAnswers(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := b.RangeAnswers(treeQuery(cq.Max, false, false, true)); err != nil {
			t.Fatal(err)
		}
		got, err := b.RangeAnswers(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(first) {
			t.Fatalf("round %d: %d answers vs %d", i, len(got), len(first))
		}
		for j := range got {
			if got[j].Key.Compare(first[j].Key) != 0 ||
				!match(got[j].GLB, first[j].GLB) || !match(got[j].LUB, first[j].LUB) {
				t.Fatalf("round %d answer %d drifted: %+v vs %+v", i, j, got[j], first[j])
			}
		}
	}
}

// benchInstance is a larger tree instance so indexing cost is visible.
func benchInstance() *db.Instance {
	in := db.NewInstance(treeSchema())
	r := ptrRng(99)
	for k := 0; k < 40; k++ {
		in.MustInsert("C", db.Int(int64(k)), db.Str([]string{"A", "B"}[k%2]))
	}
	for k := 0; k < 200; k++ {
		alts := 1 + r.next(2)
		for a := 0; a < alts; a++ {
			in.MustInsert("O", db.Int(int64(k)), db.Int(int64(r.next(41))), db.Str([]string{"x", "y"}[a%2]))
		}
	}
	for k := 0; k < 1000; k++ {
		alts := 1 + r.next(2)
		for a := 0; a < alts; a++ {
			in.MustInsert("L", db.Int(int64(k)), db.Int(int64(r.next(201))),
				db.Str([]string{"p", "q"}[a%2]), db.Int(int64(r.next(5))))
		}
	}
	return in
}

// BenchmarkBaselineMemoizedIndexes measures the production path: one
// Baseline, indexes built once, every iteration reuses them.
func BenchmarkBaselineMemoizedIndexes(b *testing.B) {
	in := benchInstance()
	bl := New(in)
	q := treeQuery(cq.Sum, true, true, false)
	if _, err := bl.RangeAnswers(q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bl.RangeAnswers(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanExecuteParallel measures the compiled plan under the
// worker pool (the planner's production entry point).
func BenchmarkPlanExecuteParallel(b *testing.B) {
	in := benchInstance()
	plan, err := Analyze(in.Schema(), treeQuery(cq.Sum, true, true, false).BuildHead())
	if err != nil {
		b.Fatal(err)
	}
	ix := NewIndexes(in)
	if _, err := plan.Execute(context.Background(), in, ix, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Execute(context.Background(), in, ix, 0); err != nil {
			b.Fatal(err)
		}
	}
}
