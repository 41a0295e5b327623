package cq

import (
	"context"
	"fmt"
	"math"
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
	if got := len(e.Eval(onKey)); got != 1 {
		t.Fatalf("probe on {0}: %d rows, want 1", got)
	}
	want := naiveEval(in, onKeyAnd64)
	if len(want) != 1 {
		t.Fatalf("reference: %d rows, want 1", len(want))
	}
	if got := e.Eval(onKeyAnd64); bagDiff(got, want) != "" {
		t.Fatalf("probe on {0, 64} after {0}: %d rows, want %d", len(got), len(want))
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
	e.Eval(q) // warm plan + index caches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Eval(q)
	}
}
