package cq

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"aggcavsat/internal/db"
	"aggcavsat/internal/xrand"
)

// bagsEqual compares two witness bags exactly: same order, kind-exact
// answers, identical fact sets and multiplicities — the determinism the
// parallel runner promises against the sequential one.
func bagsEqual(a, b []Witness) bool {
	return slices.EqualFunc(a, b, func(x, y Witness) bool {
		return x.Mult == y.Mult && x.Answer.EqualExact(y.Answer) && slices.Equal(x.Facts, y.Facts)
	})
}

// randomEvalInstance builds an instance with skew (repeated join keys,
// key-kind collisions: INT values living in a FLOAT column) and NULLs
// in every column kind outside the keys, so that probe exactness,
// repeated-variable semantics and the cell encoding of every kind are
// all exercised.
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
	orNull := func(v db.Value) db.Value {
		if rng.Intn(8) == 0 {
			return db.Null()
		}
		return v
	}
	for i := 0; i < n; i++ {
		v := db.Value(db.Float(float64(rng.Intn(4))))
		if rng.Bool(0.5) {
			v = db.Int(int64(rng.Intn(4))) // INT in the FLOAT column
		}
		in.MustInsert("R", db.Int(int64(rng.Intn(n/2+1))), orNull(db.Str(fmt.Sprintf("g%d", rng.Intn(3)))), orNull(v))
		if rng.Intn(3) > 0 {
			in.MustInsert("S", db.Int(int64(rng.Intn(n/2+1))), orNull(db.Int(int64(rng.Intn(5)))))
		}
	}
	return in
}

// randomConst draws a constant of any kind: INT, FLOAT (including
// fractional and negative-zero values), a string the instance stores
// ("g0".."g2"), strings it does not ("g3", "zz", and "g", a prefix of
// stored ones), or NULL.
func randomConst(rng *xrand.Rand) db.Value {
	switch rng.Intn(6) {
	case 0:
		return xrand.Pick(rng, []db.Value{db.Float(1), db.Float(2.5), db.Float(math.Copysign(0, -1)), db.Float(3)})
	case 1:
		return db.Str(fmt.Sprintf("g%d", rng.Intn(3)))
	case 2:
		return xrand.Pick(rng, []db.Value{db.Str("g3"), db.Str("zz"), db.Str("g")})
	case 3:
		return db.Null()
	default:
		return db.Int(int64(rng.Intn(5)))
	}
}

// randomCQ generates a query over randomEvalInstance's schema: 1–3
// atoms with fresh, repeated (within- and cross-atom), single-use
// (dead, or read by the head alone) and constant arguments — NULL and
// strings no fact stores among them — a random head, and random
// comparison conditions of every operator, LIKE-prefix included,
// between variables and constants of any kind.
func randomCQ(rng *xrand.Rand) CQ {
	vars := []string{"x", "y", "z", "u", "w"}
	fresh := 0
	pick := func() Term {
		if rng.Intn(6) == 0 {
			fresh++ // occurs once: dead unless the head picks it
			return V(fmt.Sprintf("d%d", fresh))
		}
		return V(vars[rng.Intn(len(vars))])
	}
	var q CQ
	nAtoms := 1 + rng.Intn(3)
	for i := 0; i < nAtoms; i++ {
		if rng.Bool(0.5) {
			args := []Term{pick(), pick(), pick()}
			if rng.Intn(4) == 0 {
				args[0] = C(db.Int(int64(rng.Intn(6))))
			}
			if rng.Intn(4) == 0 {
				// g3 is absent from the dictionary: the atom matches
				// nothing.
				args[1] = C(db.Str(fmt.Sprintf("g%d", rng.Intn(4))))
			} else if rng.Intn(12) == 0 {
				args[1] = C(db.Null())
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
	ops := []CmpOp{OpEQ, OpNE, OpLT, OpLE, OpGT, OpGE, OpLikePrefix, OpNotLikePrefix}
	for i := 0; i < nConds; i++ {
		left := V(boundList[rng.Intn(len(boundList))])
		right := C(randomConst(rng))
		if rng.Bool(0.4) {
			right = V(boundList[rng.Intn(len(boundList))])
		}
		if rng.Intn(4) == 0 {
			left, right = right, left
		}
		if rng.Intn(10) == 0 {
			left = C(randomConst(rng)) // constant-constant: decided at compile time
		}
		q.Conds = append(q.Conds, Condition{Left: left, Op: ops[rng.Intn(len(ops))], Right: right})
	}
	return q
}

// TestParallelEvalMatchesSequential checks that partitioned first-atom
// enumeration gives the sequential bag exactly, witness order and
// multiplicities included, and the same groups and folds.
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
		// Self-join: the two orders of a pair are two assignments of one
		// fact set, which different chunks emit.
		{Head: []string{"g", "v"}, Atoms: []Atom{
			{Rel: "R", Args: []Term{V("x"), V("g"), V("v")}},
			{Rel: "R", Args: []Term{V("y"), V("g"), V("u")}},
		}, Conds: []Condition{{Left: V("u"), Op: OpGE, Right: C(db.Int(3))}}},
	}
	safe := func(f db.FactID) bool { return f%3 != 0 }
	for _, par := range []int{2, 4, 8} {
		pe := NewEvaluator(in)
		pe.SetParallelism(par)
		for i, q := range queries {
			want := evalBag(seq, q)
			got := evalBag(pe, q)
			if !bagsEqual(got, want) {
				t.Fatalf("par=%d query %d: parallel bag differs (%d vs %d)", par, i, len(got), len(want))
			}
			wantGroups, err := seq.WitnessGroups(context.Background(), Single(q), 1, safe)
			if err != nil {
				t.Fatal(err)
			}
			gotGroups, err := pe.WitnessGroups(context.Background(), Single(q), 1, safe)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotGroups, wantGroups) {
				t.Fatalf("par=%d query %d: parallel groups differ (%d vs %d)", par, i, len(gotGroups), len(wantGroups))
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

// TestEvalParallelSharedMemo: goroutines with their own parallel
// evaluators over one fresh instance race to build and read its
// memoised partitions (run under -race: make race); each must return
// the witness bag of a sequential evaluator over an identical instance,
// in the same order. The queries probe R and S on their keys, on a string, on
// a constant and on a non-key INT.
func TestEvalParallelSharedMemo(t *testing.T) {
	queries := []CQ{
		{Head: []string{"x", "w"}, Atoms: []Atom{
			{Rel: "R", Args: []Term{V("x"), V("g"), V("v")}},
			{Rel: "S", Args: []Term{V("x"), V("w")}},
		}},
		{Head: []string{"g"}, Atoms: []Atom{
			{Rel: "S", Args: []Term{V("x"), V("w")}},
			{Rel: "R", Args: []Term{V("x"), V("g"), V("v")}},
		}, Conds: []Condition{{Left: V("v"), Op: OpGE, Right: C(db.Int(1))}}},
		{Head: []string{"x", "y"}, Atoms: []Atom{
			{Rel: "R", Args: []Term{V("x"), V("g"), V("v")}},
			{Rel: "R", Args: []Term{V("y"), V("g"), V("u")}},
		}, Conds: []Condition{{Left: V("x"), Op: OpNE, Right: V("y")}}},
		{Head: []string{"w"}, Atoms: []Atom{
			{Rel: "R", Args: []Term{V("x"), C(db.Str("g1")), V("v")}},
			{Rel: "S", Args: []Term{V("x"), V("w")}},
		}},
		{Head: []string{"x", "y"}, Atoms: []Atom{
			{Rel: "S", Args: []Term{V("x"), V("w")}},
			{Rel: "S", Args: []Term{V("y"), V("w")}},
		}, Conds: []Condition{{Left: V("x"), Op: OpLT, Right: V("y")}}},
	}
	for seed := uint64(1); seed <= 6; seed++ {
		n := 300 + int(seed)*50 // past parallelEvalThreshold
		in := randomEvalInstance(xrand.New(seed), n)
		ref := NewEvaluator(randomEvalInstance(xrand.New(seed), n))
		want := make([][]Witness, len(queries))
		for i, q := range queries {
			want[i] = evalBag(ref, q)
		}
		var wg sync.WaitGroup
		errs := make(chan string, 4)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e := NewEvaluator(in)
				e.SetParallelism(4)
				for i := range queries {
					j := (i + g) % len(queries)
					if got := evalBag(e, queries[j]); !bagsEqual(got, want[j]) {
						errs <- fmt.Sprintf("seed %d goroutine %d query %d: %d witnesses, sequential %d", seed, g, j, len(got), len(want[j]))
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
}

// TestEvalDeadlineAtDepth: a deadline is observed inside the join, not
// only between first-step candidates. The first step has one candidate
// and the two inner steps a 4,000 × 4,000 product whose condition never
// holds; both the sequential and the parallel runner must return
// context.DeadlineExceeded within 100 ms of the deadline.
func TestEvalDeadlineAtDepth(t *testing.T) {
	s := db.NewSchema()
	for _, name := range []string{"A", "B", "C"} {
		s.MustAddRelation(&db.RelationSchema{Name: name, Attrs: []db.Attribute{{Name: "x", Kind: db.KindInt}}})
	}
	in := db.NewInstance(s)
	in.MustInsert("A", db.Int(0))
	for i := 0; i < 4000; i++ {
		in.MustInsert("B", db.Int(0))
		in.MustInsert("C", db.Int(1))
	}
	q := CQ{Head: []string{"a"}, Atoms: []Atom{
		{Rel: "A", Args: []Term{V("a")}},
		{Rel: "B", Args: []Term{V("b")}},
		{Rel: "C", Args: []Term{V("c")}},
	}, Conds: []Condition{{Left: V("b"), Op: OpGT, Right: V("c")}}}
	const deadline = 50 * time.Millisecond
	for _, par := range []int{0, 4} {
		e := NewEvaluator(in)
		e.SetParallelism(par)
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		start := time.Now()
		_, err := e.WitnessBagCtx(ctx, Single(q))
		took := time.Since(start)
		cancel()
		if err != context.DeadlineExceeded {
			t.Fatalf("par=%d: WitnessBagCtx = %v after %v, want context.DeadlineExceeded", par, err, took)
		}
		if took > deadline+100*time.Millisecond {
			t.Errorf("par=%d: returned %v after a %v deadline", par, took, deadline)
		}
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
		if _, err := e.WitnessBagCtx(ctx, Single(q)); err != context.Canceled {
			t.Errorf("par=%d: WitnessBagCtx on canceled ctx = %v, want context.Canceled", par, err)
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

// BenchmarkWitnessBag measures one warm evaluation into the witness
// bag: ungrouped and unfolded (WitnessBag), and as the engine calls it,
// grouped on the first head value with a third of the facts unsafe.
func BenchmarkWitnessBag(b *testing.B) {
	in, q := benchEvalInstance()
	e := NewEvaluator(in)
	u := Single(q)
	safe := func(f db.FactID) bool { return f%3 != 0 }
	b.Run("bag", func(b *testing.B) {
		e.WitnessBag(u) // warm plan + partitions
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.WitnessBag(u)
		}
	})
	b.Run("grouped-folded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.WitnessGroups(context.Background(), u, 1, safe); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestWideRelationIndexKeys: hash indexes are cached per exact probe
// position list, positions ≥ 64 included. A relation wider than 64
// attributes probed first on {0} and then on {0, 64} must build two
// indexes; sharing the first would hash the second probe over the
// wrong positions and find nothing.
func TestWideRelationIndexKeys(t *testing.T) {
	const width = 66
	attrs := make([]db.Attribute, width)
	for i := range attrs {
		attrs[i] = db.Attribute{Name: fmt.Sprintf("a%d", i), Kind: db.KindInt}
	}
	s := db.NewSchema()
	s.MustAddRelation(&db.RelationSchema{Name: "W", Attrs: attrs, Key: []int{0}})
	s.MustAddRelation(&db.RelationSchema{Name: "P", Attrs: []db.Attribute{
		{Name: "x", Kind: db.KindInt}, {Name: "y", Kind: db.KindInt},
	}, Key: []int{0}})
	in := db.NewInstance(s)
	in.MustInsert("P", db.Int(1), db.Int(7))
	for k := int64(0); k < 4; k++ {
		row := make([]db.Value, width)
		for i := range row {
			row[i] = db.Int(k)
		}
		row[64] = db.Int(7)
		in.MustInsert("W", row...)
	}
	wAtom := func(at64 string) Atom {
		args := make([]Term, width)
		for i := range args {
			args[i] = V(fmt.Sprintf("w%d", i))
		}
		args[0] = V("x")
		args[64] = V(at64)
		return Atom{Rel: "W", Args: args}
	}
	onKey := CQ{Head: []string{"x"}, Atoms: []Atom{{Rel: "P", Args: []Term{V("x"), V("y")}}, wAtom("w64")}}
	onKeyAnd64 := CQ{Head: []string{"x"}, Atoms: []Atom{{Rel: "P", Args: []Term{V("x"), V("y")}}, wAtom("y")}}

	e := NewEvaluator(in)
	if got := len(evalBag(e, onKey)); got != 1 {
		t.Fatalf("probe on {0}: %d witnesses, want 1", got)
	}
	want := naiveEval(in, onKeyAnd64)
	if len(want) != 1 {
		t.Fatalf("reference: %d witnesses, want 1", len(want))
	}
	if got := evalBag(e, onKeyAnd64); bagDiff(got, want) != "" {
		t.Fatalf("probe on {0, 64} after {0}: %d witnesses, want %d", len(got), len(want))
	}
}

// benchWideInstance builds a lineitem-shaped relation L (14 attributes:
// a string order key, three INT keys, four FLOAT measures, six STRINGs
// of which three are dates) and an orders-shaped relation O it joins
// on the string key, with a query that reads two of L's columns: one
// into the head, one into a string-date range condition.
func benchWideInstance() (*db.Instance, CQ) {
	rng := xrand.New(42)
	s := db.NewSchema()
	s.MustAddRelation(&db.RelationSchema{Name: "O", Attrs: []db.Attribute{
		{Name: "o_key", Kind: db.KindString}, {Name: "o_prio", Kind: db.KindString},
	}, Key: []int{0}})
	s.MustAddRelation(&db.RelationSchema{Name: "L", Attrs: []db.Attribute{
		{Name: "l_okey", Kind: db.KindString}, {Name: "l_partkey", Kind: db.KindInt},
		{Name: "l_suppkey", Kind: db.KindInt}, {Name: "l_linenumber", Kind: db.KindInt},
		{Name: "l_quantity", Kind: db.KindFloat}, {Name: "l_extendedprice", Kind: db.KindFloat},
		{Name: "l_discount", Kind: db.KindFloat}, {Name: "l_tax", Kind: db.KindFloat},
		{Name: "l_returnflag", Kind: db.KindString}, {Name: "l_linestatus", Kind: db.KindString},
		{Name: "l_shipdate", Kind: db.KindString}, {Name: "l_commitdate", Kind: db.KindString},
		{Name: "l_receiptdate", Kind: db.KindString}, {Name: "l_shipmode", Kind: db.KindString},
	}, Key: []int{0, 3}})
	in := db.NewInstance(s)
	date := func() db.Value {
		return db.Str(fmt.Sprintf("199%d-%02d-%02d", 2+rng.Intn(7), 1+rng.Intn(12), 1+rng.Intn(28)))
	}
	const orders = 1000
	for o := 0; o < orders; o++ {
		key := db.Str(fmt.Sprintf("order-%06d", o))
		in.MustInsert("O", key, db.Str(fmt.Sprintf("%d-PRIO", 1+rng.Intn(5))))
		for n := 1; n <= 1+rng.Intn(7); n++ {
			in.MustInsert("L", key, db.Int(int64(rng.Intn(200))), db.Int(int64(rng.Intn(10))), db.Int(int64(n)),
				db.Float(float64(1+rng.Intn(50))), db.Float(float64(rng.Intn(100000))/100),
				db.Float(float64(rng.Intn(11))/100), db.Float(float64(rng.Intn(9))/100),
				db.Str(xrand.Pick(rng, []string{"A", "N", "R"})), db.Str(xrand.Pick(rng, []string{"F", "O"})),
				date(), date(), date(), db.Str(xrand.Pick(rng, []string{"AIR", "MAIL", "SHIP", "TRUCK"})))
		}
	}
	l := make([]Term, 14)
	for i := range l {
		l[i] = V(fmt.Sprintf("l%d", i))
	}
	l[0], l[5], l[10] = V("k"), V("price"), V("ship")
	q := CQ{
		Head:  []string{"prio", "price"},
		Atoms: []Atom{{Rel: "O", Args: []Term{V("k"), V("prio")}}, {Rel: "L", Args: l}},
		Conds: []Condition{
			{Left: V("ship"), Op: OpGE, Right: C(db.Str("1995-01-01"))},
			{Left: V("ship"), Op: OpLT, Right: C(db.Str("1996-01-01"))},
		},
	}
	return in, q
}

// BenchmarkEvalWideJoin measures a join into a wide relation where most
// columns are never read: the cost of loading, probing and comparing
// per candidate fact.
func BenchmarkEvalWideJoin(b *testing.B) {
	in, q := benchWideInstance()
	e := NewEvaluator(in)
	evalBag(e, q) // warm plan + index caches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evalBag(e, q)
	}
}
