package cq

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"aggcavsat/internal/db"
	"aggcavsat/internal/xrand"
)

// rowsEqual compares two row lists exactly: same order, kind-exact head
// values, identical fact sets — the row-order determinism the parallel
// runner promises against the sequential one.
func rowsEqual(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Head.EqualExact(b[i].Head) {
			return false
		}
		if compareFactSets(a[i].Facts, b[i].Facts) != 0 {
			return false
		}
	}
	return true
}

// randomEvalInstance builds an instance with skew (repeated join keys,
// key-kind collisions: INT values living in a FLOAT column) so that
// probe exactness and repeated-variable semantics are both exercised.
func randomEvalInstance(rng *xrand.Rand, n int) *db.Instance {
	s := db.NewSchema()
	s.MustAddRelation(&db.RelationSchema{
		Name: "R",
		Attrs: []db.Attribute{
			{Name: "k", Kind: db.KindInt},
			{Name: "g", Kind: db.KindString},
			{Name: "v", Kind: db.KindFloat},
		},
		Key: []int{0},
	})
	s.MustAddRelation(&db.RelationSchema{
		Name: "S",
		Attrs: []db.Attribute{
			{Name: "k", Kind: db.KindInt},
			{Name: "w", Kind: db.KindInt},
		},
		Key: []int{0},
	})
	in := db.NewInstance(s)
	for i := 0; i < n; i++ {
		v := db.Value(db.Float(float64(rng.Intn(4))))
		if rng.Bool(0.5) {
			v = db.Int(int64(rng.Intn(4))) // INT in the FLOAT column
		}
		in.MustInsert("R", db.Int(int64(rng.Intn(n/2+1))), db.Str(fmt.Sprintf("g%d", rng.Intn(3))), v)
		if rng.Intn(3) > 0 {
			in.MustInsert("S", db.Int(int64(rng.Intn(n/2+1))), db.Int(int64(rng.Intn(5))))
		}
	}
	return in
}

// randomCQ generates a query over randomEvalInstance's schema: 1–3
// atoms with fresh, repeated (within- and cross-atom), and constant
// arguments, a random head, and random comparison conditions.
func randomCQ(rng *xrand.Rand) CQ {
	vars := []string{"x", "y", "z", "u", "w"}
	pick := func() Term { return V(vars[rng.Intn(len(vars))]) }
	var q CQ
	nAtoms := 1 + rng.Intn(3)
	for i := 0; i < nAtoms; i++ {
		if rng.Bool(0.5) {
			args := []Term{pick(), pick(), pick()}
			if rng.Intn(4) == 0 {
				args[0] = C(db.Int(int64(rng.Intn(6))))
			}
			if rng.Intn(4) == 0 {
				args[1] = C(db.Str(fmt.Sprintf("g%d", rng.Intn(4))))
			}
			if rng.Intn(5) == 0 {
				// Constant in the FLOAT column, sometimes as an INT
				// value: probes must stay kind-exact.
				if rng.Bool(0.5) {
					args[2] = C(db.Float(float64(rng.Intn(4))))
				} else {
					args[2] = C(db.Int(int64(rng.Intn(4))))
				}
			}
			q.Atoms = append(q.Atoms, Atom{Rel: "R", Args: args})
		} else {
			args := []Term{pick(), pick()}
			if rng.Intn(4) == 0 {
				args[1] = C(db.Int(int64(rng.Intn(5))))
			}
			q.Atoms = append(q.Atoms, Atom{Rel: "S", Args: args})
		}
	}
	bound := map[string]bool{}
	var boundList []string
	for _, a := range q.Atoms {
		for _, t := range a.Args {
			if !t.IsConst && !bound[t.Var] {
				bound[t.Var] = true
				boundList = append(boundList, t.Var)
			}
		}
	}
	for _, v := range boundList {
		if rng.Bool(0.5) {
			q.Head = append(q.Head, v)
		}
	}
	nConds := rng.Intn(3)
	if len(boundList) == 0 {
		nConds = 0 // all-constant atoms: no variables to compare
	}
	ops := []CmpOp{OpEQ, OpNE, OpLT, OpLE, OpGT, OpGE}
	for i := 0; i < nConds; i++ {
		left := V(boundList[rng.Intn(len(boundList))])
		right := Term(C(db.Int(int64(rng.Intn(5)))))
		if rng.Bool(0.5) {
			right = V(boundList[rng.Intn(len(boundList))])
		}
		q.Conds = append(q.Conds, Condition{Left: left, Op: ops[rng.Intn(len(ops))], Right: right})
	}
	return q
}

// TestParallelEvalMatchesSequential checks that partitioned first-atom
// enumeration preserves the sequential row order exactly.
func TestParallelEvalMatchesSequential(t *testing.T) {
	rng := xrand.New(99)
	in := randomEvalInstance(rng, 1200) // well past parallelEvalThreshold
	seq := NewEvaluator(in)
	queries := []CQ{
		{Head: []string{"x", "w"}, Atoms: []Atom{
			{Rel: "R", Args: []Term{V("x"), V("g"), V("v")}},
			{Rel: "S", Args: []Term{V("x"), V("w")}},
		}},
		{Head: []string{"g"}, Atoms: []Atom{{Rel: "R", Args: []Term{V("x"), V("g"), V("v")}}},
			Conds: []Condition{{Left: V("v"), Op: OpGE, Right: C(db.Int(1))}}},
	}
	for _, par := range []int{2, 4, 8} {
		pe := NewEvaluator(in)
		pe.SetParallelism(par)
		for i, q := range queries {
			want := seq.Eval(q)
			got := pe.Eval(q)
			if !rowsEqual(got, want) {
				t.Fatalf("par=%d query %d: parallel rows differ (%d vs %d)", par, i, len(got), len(want))
			}
		}
	}
}

// TestWitnessBagConcurrentShared runs concurrent parallel witness
// enumeration on one shared evaluator (exercised under -race): plan
// cache, hash indexes, and worker fan-out must not interfere.
func TestWitnessBagConcurrentShared(t *testing.T) {
	rng := xrand.New(7)
	in := randomEvalInstance(rng, 800)
	e := NewEvaluator(in)
	e.SetParallelism(4)
	u := Single(CQ{Head: []string{"g", "w"}, Atoms: []Atom{
		{Rel: "R", Args: []Term{V("x"), V("g"), V("v")}},
		{Rel: "S", Args: []Term{V("x"), V("w")}},
	}})
	want, err := e.WitnessBagCtx(context.Background(), u)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				got, err := e.WitnessBagCtx(context.Background(), u)
				if err != nil {
					errs <- err.Error()
					return
				}
				if len(got) != len(want) {
					errs <- "witness bag drifted under concurrency"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestEvalCtxCancel checks that a canceled context aborts both the
// sequential and the parallel runner with ctx.Err().
func TestEvalCtxCancel(t *testing.T) {
	rng := xrand.New(13)
	in := randomEvalInstance(rng, 1200)
	q := CQ{Head: []string{"x"}, Atoms: []Atom{{Rel: "R", Args: []Term{V("x"), V("g"), V("v")}}}}
	for _, par := range []int{0, 4} {
		e := NewEvaluator(in)
		e.SetParallelism(par)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := e.EvalCtx(ctx, q); err != context.Canceled {
			t.Errorf("par=%d: EvalCtx on canceled ctx = %v, want context.Canceled", par, err)
		}
	}
}

func benchEvalInstance() (*db.Instance, CQ) {
	rng := xrand.New(42)
	in := randomEvalInstance(rng, 2000)
	q := CQ{Head: []string{"g", "w"}, Atoms: []Atom{
		{Rel: "R", Args: []Term{V("x"), V("g"), V("v")}},
		{Rel: "S", Args: []Term{V("x"), V("w")}},
	}}
	return in, q
}

func BenchmarkEvalCompiled(b *testing.B) {
	in, q := benchEvalInstance()
	e := NewEvaluator(in)
	e.Eval(q) // warm plan + index caches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Eval(q)
	}
}

func BenchmarkWitnessBag(b *testing.B) {
	in, q := benchEvalInstance()
	e := NewEvaluator(in)
	u := Single(q)
	e.WitnessBag(u)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.WitnessBag(u)
	}
}
