package cq

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"aggcavsat/internal/db"
)

// bank builds the paper's Table I instance. Fact IDs: f1..f14 = 0..13.
func bank() *db.Instance {
	s := db.NewSchema()
	s.MustAddRelation(&db.RelationSchema{
		Name: "Cust",
		Attrs: []db.Attribute{
			{Name: "CID", Kind: db.KindString},
			{Name: "NAME", Kind: db.KindString},
			{Name: "CITY", Kind: db.KindString},
		},
		Key: []int{0},
	})
	s.MustAddRelation(&db.RelationSchema{
		Name: "Acc",
		Attrs: []db.Attribute{
			{Name: "ACCID", Kind: db.KindString},
			{Name: "TYPE", Kind: db.KindString},
			{Name: "CITY", Kind: db.KindString},
			{Name: "BAL", Kind: db.KindInt},
		},
		Key: []int{0},
	})
	s.MustAddRelation(&db.RelationSchema{
		Name: "CustAcc",
		Attrs: []db.Attribute{
			{Name: "CID", Kind: db.KindString},
			{Name: "ACCID", Kind: db.KindString},
		},
		Key: []int{0, 1},
	})
	in := db.NewInstance(s)
	in.MustInsert("Cust", db.Str("C1"), db.Str("John"), db.Str("LA"))
	in.MustInsert("Cust", db.Str("C2"), db.Str("Mary"), db.Str("LA"))
	in.MustInsert("Cust", db.Str("C2"), db.Str("Mary"), db.Str("SF"))
	in.MustInsert("Cust", db.Str("C3"), db.Str("Don"), db.Str("SF"))
	in.MustInsert("Cust", db.Str("C4"), db.Str("Jen"), db.Str("LA"))
	in.MustInsert("Acc", db.Str("A1"), db.Str("Check."), db.Str("LA"), db.Int(900))
	in.MustInsert("Acc", db.Str("A2"), db.Str("Check."), db.Str("LA"), db.Int(1000))
	in.MustInsert("Acc", db.Str("A3"), db.Str("Saving"), db.Str("SJ"), db.Int(1200))
	in.MustInsert("Acc", db.Str("A3"), db.Str("Saving"), db.Str("SF"), db.Int(-100))
	in.MustInsert("Acc", db.Str("A4"), db.Str("Saving"), db.Str("SJ"), db.Int(300))
	in.MustInsert("CustAcc", db.Str("C1"), db.Str("A1"))
	in.MustInsert("CustAcc", db.Str("C2"), db.Str("A2"))
	in.MustInsert("CustAcc", db.Str("C2"), db.Str("A3"))
	in.MustInsert("CustAcc", db.Str("C3"), db.Str("A4"))
	return in
}

// maryBalances is the underlying CQ of Example IV.2: balances of accounts
// owned by Mary, with the balance variable in the head.
//
//	q(bal) :- Cust(cid, 'Mary', city), CustAcc(cid, accid),
//	          Acc(accid, type, acity, bal)
func maryBalances() CQ {
	return CQ{
		Head: []string{"bal"},
		Atoms: []Atom{
			{Rel: "Cust", Args: []Term{V("cid"), C(db.Str("Mary")), V("city")}},
			{Rel: "CustAcc", Args: []Term{V("cid"), V("accid")}},
			{Rel: "Acc", Args: []Term{V("accid"), V("type"), V("acity"), V("bal")}},
		},
	}
}

// sameCity is the underlying CQ of Example IV.1: customers having an
// account in their own city.
func sameCity() CQ {
	return CQ{
		Head: []string{},
		Atoms: []Atom{
			{Rel: "Cust", Args: []Term{V("cid"), V("name"), V("city")}},
			{Rel: "CustAcc", Args: []Term{V("cid"), V("accid")}},
			{Rel: "Acc", Args: []Term{V("accid"), V("type"), V("city"), V("bal")}},
		},
	}
}

func TestValidate(t *testing.T) {
	in := bank()
	schema := in.Schema()
	good := maryBalances()
	if err := good.Validate(schema); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	bad := CQ{Head: []string{"x"}, Atoms: []Atom{{Rel: "Nope", Args: []Term{V("x")}}}}
	if err := bad.Validate(schema); err == nil {
		t.Error("unknown relation accepted")
	}
	bad = CQ{Head: []string{"x"}, Atoms: []Atom{{Rel: "Cust", Args: []Term{V("x")}}}}
	if err := bad.Validate(schema); err == nil {
		t.Error("wrong arity accepted")
	}
	bad = CQ{Head: []string{"z"}, Atoms: []Atom{{Rel: "CustAcc", Args: []Term{V("x"), V("y")}}}}
	if err := bad.Validate(schema); err == nil {
		t.Error("unbound head variable accepted")
	}
	bad = CQ{
		Atoms: []Atom{{Rel: "CustAcc", Args: []Term{V("x"), V("y")}}},
		Conds: []Condition{{Left: V("zz"), Op: OpEQ, Right: C(db.Str("a"))}},
	}
	if err := bad.Validate(schema); err == nil {
		t.Error("unbound condition variable accepted")
	}
	bad = CQ{Atoms: []Atom{{Rel: "Acc", Args: []Term{C(db.Int(5)), V("t"), V("c"), V("b")}}}}
	if err := bad.Validate(schema); err == nil {
		t.Error("kind-mismatched constant accepted")
	}
	bad = CQ{Atoms: []Atom{{Rel: "CustAcc", Args: []Term{Term{}, V("y")}}}}
	if err := bad.Validate(schema); err == nil {
		t.Error("empty variable name accepted")
	}
}

func TestUCQValidate(t *testing.T) {
	in := bank()
	u := UCQ{}
	if err := u.Validate(in.Schema()); err == nil {
		t.Error("empty union accepted")
	}
	u = UCQ{Disjuncts: []CQ{
		{Head: []string{"x"}, Atoms: []Atom{{Rel: "CustAcc", Args: []Term{V("x"), V("y")}}}},
		{Head: []string{"x", "y"}, Atoms: []Atom{{Rel: "CustAcc", Args: []Term{V("x"), V("y")}}}},
	}}
	if err := u.Validate(in.Schema()); err == nil {
		t.Error("head arity mismatch accepted")
	}
}

func TestEvalSimpleScan(t *testing.T) {
	in := bank()
	e := NewEvaluator(in)
	q := CQ{
		Head:  []string{"cid", "name"},
		Atoms: []Atom{{Rel: "Cust", Args: []Term{V("cid"), V("name"), V("city")}}},
	}
	bag := evalBag(e, q)
	if len(bag) != 5 {
		t.Fatalf("got %d witnesses, want 5", len(bag))
	}
	for _, w := range bag {
		if len(w.Facts) != 1 {
			t.Errorf("single-atom witness size = %d", len(w.Facts))
		}
	}
}

func TestEvalConstantSelection(t *testing.T) {
	in := bank()
	e := NewEvaluator(in)
	q := CQ{
		Head:  []string{"city"},
		Atoms: []Atom{{Rel: "Cust", Args: []Term{V("cid"), C(db.Str("Mary")), V("city")}}},
	}
	bag := evalBag(e, q)
	if len(bag) != 2 {
		t.Fatalf("got %d witnesses, want 2 (Mary twice)", len(bag))
	}
	cities := map[string]bool{}
	for _, w := range bag {
		cities[w.Answer[0].AsString()] = true
	}
	if !cities["LA"] || !cities["SF"] {
		t.Errorf("cities = %v", cities)
	}
}

func TestEvalJoin(t *testing.T) {
	in := bank()
	e := NewEvaluator(in)
	bag := evalBag(e, maryBalances())
	// Mary appears twice (f2, f3); she owns A2 and A3; A3 has two
	// variants. Balances: via f2 and f3 each: A2→1000, A3→1200, A3→-100.
	if len(bag) != 6 {
		t.Fatalf("got %d witnesses, want 6", len(bag))
	}
	counts := map[int64]int{}
	for _, w := range bag {
		counts[w.Answer[0].AsInt()]++
		if len(w.Facts) != 3 {
			t.Errorf("witness should have 3 facts, got %v", w.Facts)
		}
	}
	if counts[1000] != 2 || counts[1200] != 2 || counts[-100] != 2 {
		t.Errorf("balance multiplicities = %v", counts)
	}
}

func TestEvalRepeatedVariableJoin(t *testing.T) {
	// sameCity joins Cust.CITY with Acc.CITY through the shared variable.
	in := bank()
	e := NewEvaluator(in)
	bag := evalBag(e, sameCity())
	// Witnesses (from the paper's Example IV.1): {f1,f6,f11}, {f2,f7,f12},
	// {f3,f9,f13}.
	if len(bag) != 3 {
		t.Fatalf("got %d witnesses, want 3", len(bag))
	}
	want := map[string]bool{
		"[0 5 10]": true, // f1, f6, f11
		"[1 6 11]": true, // f2, f7, f12
		"[2 8 12]": true, // f3, f9, f13
	}
	for _, w := range bag {
		k := fmt.Sprint(w.Facts)
		if !want[k] {
			t.Errorf("unexpected witness %v", w.Facts)
		}
	}
}

func TestEvalSelfJoin(t *testing.T) {
	// Pairs of distinct customers in the same city.
	in := bank()
	e := NewEvaluator(in)
	q := CQ{
		Head: []string{"n1", "n2"},
		Atoms: []Atom{
			{Rel: "Cust", Args: []Term{V("c1"), V("n1"), V("city")}},
			{Rel: "Cust", Args: []Term{V("c2"), V("n2"), V("city")}},
		},
		Conds: []Condition{{Left: V("c1"), Op: OpLT, Right: V("c2")}},
	}
	if q.SelfJoinFree() {
		t.Error("SelfJoinFree misreports")
	}
	bag := evalBag(e, q)
	// LA: C1,C2(f2),C4 -> pairs (C1,C2),(C1,C4),(C2,C4) = 3
	// SF: C2(f3),C3 -> 1 pair. Total 4.
	if len(bag) != 4 {
		t.Fatalf("got %d witnesses, want 4", len(bag))
	}
	for _, w := range bag {
		if len(w.Facts) != 2 {
			t.Errorf("self-join witness = %v", w.Facts)
		}
	}
}

func TestEvalIntraAtomRepeatedVar(t *testing.T) {
	// R(x, x) must only match facts with equal columns.
	s := db.NewSchema()
	s.MustAddRelation(&db.RelationSchema{
		Name:  "R",
		Attrs: []db.Attribute{{Name: "a", Kind: db.KindInt}, {Name: "b", Kind: db.KindInt}},
	})
	in := db.NewInstance(s)
	in.MustInsert("R", db.Int(1), db.Int(1))
	in.MustInsert("R", db.Int(1), db.Int(2))
	in.MustInsert("R", db.Int(3), db.Int(3))
	e := NewEvaluator(in)
	bag := evalBag(e, CQ{Head: []string{"x"}, Atoms: []Atom{{Rel: "R", Args: []Term{V("x"), V("x")}}}})
	if len(bag) != 2 {
		t.Fatalf("R(x,x) matched %d witnesses, want 2", len(bag))
	}
}

func TestEvalConditions(t *testing.T) {
	in := bank()
	e := NewEvaluator(in)
	q := CQ{
		Head:  []string{"accid"},
		Atoms: []Atom{{Rel: "Acc", Args: []Term{V("accid"), V("type"), V("city"), V("bal")}}},
		Conds: []Condition{
			{Left: V("bal"), Op: OpGE, Right: C(db.Int(900))},
			{Left: V("type"), Op: OpLikePrefix, Right: C(db.Str("Check"))},
		},
	}
	bag := evalBag(e, q)
	if len(bag) != 2 { // A1 (900), A2 (1000)
		t.Fatalf("got %d witnesses, want 2", len(bag))
	}
}

func TestCmpOps(t *testing.T) {
	one, two := db.Int(1), db.Int(2)
	cases := []struct {
		op   CmpOp
		a, b db.Value
		want bool
	}{
		{OpEQ, one, one, true}, {OpEQ, one, two, false},
		{OpNE, one, two, true}, {OpNE, one, one, false},
		{OpLT, one, two, true}, {OpLT, two, one, false},
		{OpLE, one, one, true}, {OpLE, two, one, false},
		{OpGT, two, one, true}, {OpGT, one, one, false},
		{OpGE, one, one, true}, {OpGE, one, two, false},
		{OpLikePrefix, db.Str("PROMO X"), db.Str("PROMO"), true},
		{OpLikePrefix, db.Str("X PROMO"), db.Str("PROMO"), false},
		{OpLikePrefix, one, db.Str("1"), false},
		{OpNotLikePrefix, db.Str("X"), db.Str("PROMO"), true},
		{OpNotLikePrefix, db.Str("PROMO"), db.Str("PROMO"), false},
	}
	for i, c := range cases {
		if got := c.op.Apply(c.a, c.b); got != c.want {
			t.Errorf("case %d (%v %v %v): got %v", i, c.a, c.op, c.b, got)
		}
	}
}

func TestEvalEmptyResult(t *testing.T) {
	in := bank()
	e := NewEvaluator(in)
	q := CQ{
		Head:  []string{"cid"},
		Atoms: []Atom{{Rel: "Cust", Args: []Term{V("cid"), C(db.Str("Nobody")), V("city")}}},
	}
	if bag := evalBag(e, q); len(bag) != 0 {
		t.Errorf("got %d witnesses, want 0", len(bag))
	}
}

func TestEvalUCQ(t *testing.T) {
	in := bank()
	e := NewEvaluator(in)
	u := UCQ{Disjuncts: []CQ{
		{Head: []string{"cid"}, Atoms: []Atom{{Rel: "Cust", Args: []Term{V("cid"), C(db.Str("Mary")), V("c")}}}},
		{Head: []string{"cid"}, Atoms: []Atom{{Rel: "Cust", Args: []Term{V("cid"), C(db.Str("John")), V("c")}}}},
	}}
	bag := e.WitnessBag(u)
	if len(bag) != 3 {
		t.Fatalf("got %d witnesses, want 3", len(bag))
	}
	// Grouped by the whole head: one group per distinct answer, sorted.
	groups, err := e.WitnessGroups(context.Background(), u, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 || groups[0].Key.Compare(groups[1].Key) >= 0 {
		t.Fatalf("distinct answers = %+v", groups)
	}
}

func TestWithExtraCondsAndHead(t *testing.T) {
	u := Single(maryBalances())
	u2 := u.WithExtraConds(Condition{Left: V("bal"), Op: OpGT, Right: C(db.Int(0))})
	if len(u.Disjuncts[0].Conds) != 0 {
		t.Error("WithExtraConds mutated the original")
	}
	if len(u2.Disjuncts[0].Conds) != 1 {
		t.Error("condition not added")
	}
	u3 := u.WithHead("cid")
	if u3.Disjuncts[0].Head[0] != "cid" || u.Disjuncts[0].Head[0] != "bal" {
		t.Error("WithHead wrong")
	}
}

func TestPlanPrefersBoundAtoms(t *testing.T) {
	// Regardless of atom listing order the plan must start from the
	// selective constant atom; we verify via correct (and fast) results.
	in := bank()
	e := NewEvaluator(in)
	q := CQ{
		Head: []string{"bal"},
		Atoms: []Atom{
			{Rel: "Acc", Args: []Term{V("accid"), V("t"), V("ac"), V("bal")}},
			{Rel: "CustAcc", Args: []Term{V("cid"), V("accid")}},
			{Rel: "Cust", Args: []Term{V("cid"), C(db.Str("Mary")), V("city")}},
		},
	}
	bag := evalBag(e, q)
	if len(bag) != 6 {
		t.Fatalf("got %d witnesses, want 6", len(bag))
	}
	p := planCQ(in, q)
	if p.order[0] != 2 {
		t.Errorf("plan should start with the constant-bound Cust atom, got %v", p.order)
	}
}

func TestEvalPanicsOnInvalidQuery(t *testing.T) {
	in := bank()
	e := NewEvaluator(in)
	defer func() {
		if recover() == nil {
			t.Error("evaluating an invalid query should panic")
		}
	}()
	evalBag(e, CQ{Head: []string{"x"}, Atoms: []Atom{{Rel: "Missing", Args: []Term{V("x")}}}})
}

func TestQueryStringers(t *testing.T) {
	q := maryBalances()
	if s := q.String(); s == "" {
		t.Error("empty CQ string")
	}
	u := Single(q)
	if s := u.String(); s == "" {
		t.Error("empty UCQ string")
	}
	c := Condition{Left: V("x"), Op: OpNE, Right: C(db.Int(3))}
	if c.String() != "x <> 3" {
		t.Errorf("condition string = %q", c.String())
	}
	if V("x").String() != "x" || C(db.Str("s")).String() != `"s"` {
		t.Error("term strings")
	}
}

func TestVarsSorted(t *testing.T) {
	q := maryBalances()
	vars := q.Vars()
	for i := 1; i < len(vars); i++ {
		if vars[i-1] >= vars[i] {
			t.Fatalf("vars not sorted: %v", vars)
		}
	}
	if len(vars) != 6 {
		t.Errorf("vars = %v", vars)
	}
}

// TestEvaluatorConcurrentEval exercises the lazy index cache from many
// goroutines at once (run under -race): concurrent Eval calls must
// build each index exactly once semantically and return identical bags.
func TestEvaluatorConcurrentEval(t *testing.T) {
	in := bank()
	e := NewEvaluator(in)
	want := evalBag(e, maryBalances())
	queries := []CQ{maryBalances(), sameCity()}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				q := queries[(g+rep)%len(queries)]
				bag := evalBag(e, q)
				if q.Head != nil && len(q.Head) == 1 && len(bag) != len(want) {
					errs <- "witness count drifted under concurrency"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
