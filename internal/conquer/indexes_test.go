package conquer

import (
	"context"
	"testing"

	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
)

// TestIndexesMemoized: the lookup tables are built once per instance
// version — repeated calls return the identical map, and appending a
// fact invalidates exactly once.
func TestIndexesMemoized(t *testing.T) {
	in := randomTreeInstance(ptrRng(3))
	ix := NewIndexes(in)
	t1 := ix.tables()
	t2 := ix.tables()
	if !sameTables(t1, t2) {
		t.Fatal("tables rebuilt despite unchanged instance")
	}
	id := in.MustInsert("C", db.Int(77), db.Str("A"))
	t3 := ix.tables()
	if sameTables(t1, t3) {
		t.Fatal("tables not rebuilt after append")
	}
	c, ok := in.Dict().CellOf(db.Int(77))
	if !ok {
		t.Fatal("cell of Int(77) unavailable")
	}
	got := t3["c"].lookup(in, []int{0}, db.HashCell(db.HashSeed, c), []db.Cell{c})
	if len(got) != 1 || got[0] != id {
		t.Fatalf("appended fact not indexed: %v", got)
	}
}

// sameTables reports whether two table snapshots are the same memoized
// build (maps are only ever replaced wholesale, so comparing one entry's
// pointer identity suffices).
func sameTables(a, b map[string]*relIndex) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		return b[k] == v
	}
	return true
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

// BenchmarkBaselineFreshIndexes is the pre-memo behavior: rebuild the
// per-relation child index maps on every call (a fresh Baseline per
// iteration). The delta against BenchmarkBaselineMemoizedIndexes is the
// re-indexing cost the memo removes.
func BenchmarkBaselineFreshIndexes(b *testing.B) {
	in := benchInstance()
	q := treeQuery(cq.Sum, true, true, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(in).RangeAnswers(q); err != nil {
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
