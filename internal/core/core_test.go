package core

import (
	"slices"
	"testing"

	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
)

// bank builds the paper's Table I instance (fact IDs 0..13 = f1..f14).
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

func mustEngine(t *testing.T, in *db.Instance) *Engine {
	t.Helper()
	e, err := New(in, Options{Mode: KeysMode})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// noElimination switches group elimination off on e, so every keys-mode
// COUNT/SUM component is encoded and solved, as DISTINCT and DC-mode
// components always are.
func noElimination(e *Engine) *Engine {
	e.elimBudget = 0
	return e
}

// paperSumQuery: SELECT SUM(Acc.BAL) for customer C2 (Section I).
func paperSumQuery() cq.AggQuery {
	return cq.AggQuery{
		Op:     cq.Sum,
		AggVar: "bal",
		Underlying: cq.Single(cq.CQ{
			Atoms: []cq.Atom{
				{Rel: "CustAcc", Args: []cq.Term{cq.C(db.Str("C2")), cq.V("accid")}},
				{Rel: "Acc", Args: []cq.Term{cq.V("accid"), cq.V("t"), cq.V("c"), cq.V("bal")}},
			},
		}),
	}
}

// coupledSumQuery is Example IV.2: SUM(Acc.BAL) over Mary's accounts,
// reached through her Cust facts. Every witness holds one of Mary's two
// Cust facts and some hold one of account A3's two facts too, coupling
// two violating key-equal groups: its one component is eliminated with
// width 1 (one table of 2 × 2 entries), where paperSumQuery's (same
// range) has width 0. Under noElimination it is encoded and solved.
func coupledSumQuery() cq.AggQuery {
	return cq.AggQuery{
		Op:     cq.Sum,
		AggVar: "bal",
		Underlying: cq.Single(cq.CQ{
			Atoms: []cq.Atom{
				{Rel: "Cust", Args: []cq.Term{cq.V("cid"), cq.C(db.Str("Mary")), cq.V("city")}},
				{Rel: "CustAcc", Args: []cq.Term{cq.V("cid"), cq.V("accid")}},
				{Rel: "Acc", Args: []cq.Term{cq.V("accid"), cq.V("t"), cq.V("ac"), cq.V("bal")}},
			},
		}),
	}
}

func TestPaperRunningExampleSum(t *testing.T) {
	// Section I: range consistent answer is [900, 2200].
	e := mustEngine(t, bank())
	rep, err := e.RangeAnswers(paperSumQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Answers) != 1 {
		t.Fatalf("answers = %+v", rep.Answers)
	}
	a := rep.Answers[0]
	if a.GLB.AsInt() != 900 || a.LUB.AsInt() != 2200 {
		t.Fatalf("range = [%v, %v], want [900, 2200]", a.GLB, a.LUB)
	}
	// Each witness touches one violating key-equal group (A3's): the one
	// component is answered in closed form, with no MaxSAT run.
	if rep.Stats.MaxSATRuns != 0 || rep.Stats.ClosedFormComponents != 1 {
		t.Errorf("MaxSATRuns = %d, ClosedFormComponents = %d, want 0 and 1",
			rep.Stats.MaxSATRuns, rep.Stats.ClosedFormComponents)
	}
}

func TestPaperExampleIV1CountStar(t *testing.T) {
	// COUNT(*) of customers with an account in their own city: [1, 2].
	e := mustEngine(t, bank())
	q := cq.AggQuery{
		Op: cq.CountStar,
		Underlying: cq.Single(cq.CQ{
			Atoms: []cq.Atom{
				{Rel: "Cust", Args: []cq.Term{cq.V("cid"), cq.V("n"), cq.V("city")}},
				{Rel: "CustAcc", Args: []cq.Term{cq.V("cid"), cq.V("accid")}},
				{Rel: "Acc", Args: []cq.Term{cq.V("accid"), cq.V("t"), cq.V("city"), cq.V("b")}},
			},
		}),
	}
	rep, err := e.RangeAnswers(q)
	if err != nil {
		t.Fatal(err)
	}
	a := rep.Answers[0]
	if a.GLB.AsInt() != 1 || a.LUB.AsInt() != 2 {
		t.Fatalf("range = [%v, %v], want [1, 2]", a.GLB, a.LUB)
	}
}

func TestPaperExampleIV2SumMary(t *testing.T) {
	// SUM(Acc.BAL) over Mary's accounts: [900, 2200] (same interval as
	// the running example — Mary is C2).
	e := mustEngine(t, bank())
	rep, err := e.RangeAnswers(coupledSumQuery())
	if err != nil {
		t.Fatal(err)
	}
	a := rep.Answers[0]
	if a.GLB.AsInt() != 900 || a.LUB.AsInt() != 2200 {
		t.Fatalf("range = [%v, %v], want [900, 2200]", a.GLB, a.LUB)
	}
	// Its witnesses couple Mary's key-equal group with A3's: one
	// component, eliminated with no MaxSAT run.
	if rep.Stats.MaxSATRuns != 0 || rep.Stats.ClosedFormComponents != 1 {
		t.Errorf("MaxSATRuns = %d, ClosedFormComponents = %d, want 0 and 1",
			rep.Stats.MaxSATRuns, rep.Stats.ClosedFormComponents)
	}
	// Without elimination the same component is solved in both
	// directions, to the same range.
	rep, err = noElimination(mustEngine(t, bank())).RangeAnswers(coupledSumQuery())
	if err != nil {
		t.Fatal(err)
	}
	if a := rep.Answers[0]; a.GLB.AsInt() != 900 || a.LUB.AsInt() != 2200 {
		t.Fatalf("solved range = [%v, %v], want [900, 2200]", a.GLB, a.LUB)
	}
	if rep.Stats.MaxSATRuns != 2 || rep.Stats.ClosedFormComponents != 0 {
		t.Errorf("solved: MaxSATRuns = %d, ClosedFormComponents = %d, want 2 (glb + lub) and 0",
			rep.Stats.MaxSATRuns, rep.Stats.ClosedFormComponents)
	}
}

func TestPaperExampleIV3CountDistinct(t *testing.T) {
	// COUNT(DISTINCT Acc.TYPE): [2, 2].
	e := mustEngine(t, bank())
	q := cq.AggQuery{
		Op:     cq.CountDistinct,
		AggVar: "type",
		Underlying: cq.Single(cq.CQ{
			Atoms: []cq.Atom{{Rel: "Acc", Args: []cq.Term{cq.V("id"), cq.V("type"), cq.V("c"), cq.V("b")}}},
		}),
	}
	rep, err := e.RangeAnswers(q)
	if err != nil {
		t.Fatal(err)
	}
	a := rep.Answers[0]
	if a.GLB.AsInt() != 2 || a.LUB.AsInt() != 2 {
		t.Fatalf("range = [%v, %v], want [2, 2]", a.GLB, a.LUB)
	}
}

func TestPaperGroupedCountByCity(t *testing.T) {
	// Section IV-C: COUNT(*) FROM Cust GROUP BY CITY:
	// LA → [2,3], SF → [1,2].
	e := mustEngine(t, bank())
	q := cq.AggQuery{
		Op:      cq.CountStar,
		GroupBy: []string{"city"},
		Underlying: cq.Single(cq.CQ{
			Atoms: []cq.Atom{{Rel: "Cust", Args: []cq.Term{cq.V("cid"), cq.V("n"), cq.V("city")}}},
		}),
	}
	rep, err := e.RangeAnswers(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Answers) != 2 {
		t.Fatalf("answers = %+v", rep.Answers)
	}
	la, sf := rep.Answers[0], rep.Answers[1]
	if la.Key[0].AsString() != "LA" || la.GLB.AsInt() != 2 || la.LUB.AsInt() != 3 {
		t.Errorf("LA = %+v", la)
	}
	if sf.Key[0].AsString() != "SF" || sf.GLB.AsInt() != 1 || sf.LUB.AsInt() != 2 {
		t.Errorf("SF = %+v", sf)
	}
}

func TestConsistentAnswersUnderlying(t *testing.T) {
	// CONS of q(name) :- Cust(cid, name, city): John, Mary, Don, Jen are
	// all consistent (Mary's two tuples agree on the name).
	e := mustEngine(t, bank())
	u := cq.Single(cq.CQ{
		Head:  []string{"name"},
		Atoms: []cq.Atom{{Rel: "Cust", Args: []cq.Term{cq.V("cid"), cq.V("name"), cq.V("city")}}},
	})
	ans, _, err := e.ConsistentAnswers(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 4 {
		t.Fatalf("consistent names = %v", ans)
	}
	// CONS of q(city) :- Cust(...): LA and SF are consistent (both
	// repairs contain LA and SF customers); every answer certain.
	u = cq.Single(cq.CQ{
		Head:  []string{"city"},
		Atoms: []cq.Atom{{Rel: "Cust", Args: []cq.Term{cq.V("cid"), cq.V("name"), cq.V("city")}}},
	})
	ans, _, err = e.ConsistentAnswers(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 2 {
		t.Fatalf("consistent cities = %v", ans)
	}
}

func TestConsistentAnswersDropsUncertain(t *testing.T) {
	// q(city) :- Acc(accid, t, city, b): cities SJ and SF conflict for
	// A3; LA is certain. The repair {f8} (A3→SJ) has cities {LA, SJ};
	// the repair {f9} has {LA, SF}. Only LA is consistent.
	e := mustEngine(t, bank())
	u := cq.Single(cq.CQ{
		Head:  []string{"city"},
		Atoms: []cq.Atom{{Rel: "Acc", Args: []cq.Term{cq.V("accid"), cq.V("t"), cq.V("city"), cq.V("b")}}},
	})
	ans, stats, err := e.ConsistentAnswers(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 2 { // LA (certain) and SJ (certain via A4=f10!)
		t.Fatalf("consistent cities = %v", ans)
	}
	// Group elimination decides the uncertain city; the stats count the
	// formula the SAT check would have built.
	if stats.SATCalls != 0 || stats.Vars == 0 {
		t.Errorf("SAT calls %d, CNF vars %d: want 0 and the counted formula", stats.SATCalls, stats.Vars)
	}
	// A budget no table fits declines it to the SAT check, which agrees
	// and builds the formula counted.
	e.elimBudget = 0
	sans, sstats, err := e.ConsistentAnswers(u)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(sans, ans, db.Tuple.EqualExact) || sstats.SATCalls == 0 ||
		sstats.Vars != stats.Vars || sstats.Clauses != stats.Clauses {
		t.Errorf("SAT fallback: %v, %d SAT calls, %d/%d vars/clauses; elimination: %v, %d/%d",
			sans, sstats.SATCalls, sstats.Vars, sstats.Clauses, ans, stats.Vars, stats.Clauses)
	}
}

func TestScalarMinMax(t *testing.T) {
	e := mustEngine(t, bank())
	q := paperSumQuery()
	q.Op = cq.Max
	rep, err := e.RangeAnswers(q)
	if err != nil {
		t.Fatal(err)
	}
	a := rep.Answers[0]
	if a.GLB.AsInt() != 1000 || a.LUB.AsInt() != 1200 {
		t.Fatalf("MAX range = [%v, %v], want [1000, 1200]", a.GLB, a.LUB)
	}
	q.Op = cq.Min
	rep, err = e.RangeAnswers(q)
	if err != nil {
		t.Fatal(err)
	}
	a = rep.Answers[0]
	if a.GLB.AsInt() != -100 || a.LUB.AsInt() != 1000 {
		t.Fatalf("MIN range = [%v, %v], want [-100, 1000]", a.GLB, a.LUB)
	}
	if a.EmptyPossible {
		t.Error("C2 always owns accounts; empty result impossible")
	}
}

func TestMinMaxEmptyPossible(t *testing.T) {
	// A query whose only witnesses use one side of a key conflict: the
	// other choice empties the result.
	s := db.NewSchema()
	s.MustAddRelation(&db.RelationSchema{
		Name: "R",
		Attrs: []db.Attribute{
			{Name: "k", Kind: db.KindString},
			{Name: "city", Kind: db.KindString},
			{Name: "v", Kind: db.KindInt},
		},
		Key: []int{0},
	})
	in := db.NewInstance(s)
	in.MustInsert("R", db.Str("k1"), db.Str("LA"), db.Int(5))
	in.MustInsert("R", db.Str("k1"), db.Str("SF"), db.Int(9))
	e := mustEngine(t, in)
	q := cq.AggQuery{
		Op:     cq.Max,
		AggVar: "v",
		Underlying: cq.Single(cq.CQ{
			Atoms: []cq.Atom{{Rel: "R", Args: []cq.Term{cq.V("k"), cq.C(db.Str("LA")), cq.V("v")}}},
		}),
	}
	rep, err := e.RangeAnswers(q)
	if err != nil {
		t.Fatal(err)
	}
	a := rep.Answers[0]
	if !a.EmptyPossible {
		t.Fatal("choosing the SF tuple empties the result")
	}
	// Endpoints range over the non-empty repairs: only the LA repair.
	if a.GLB.AsInt() != 5 || a.LUB.AsInt() != 5 {
		t.Errorf("range = [%v, %v], want [5, 5]", a.GLB, a.LUB)
	}
}

func TestConsistentPartShortcut(t *testing.T) {
	// A query touching only consistent facts must skip SAT entirely.
	e := mustEngine(t, bank())
	q := cq.AggQuery{
		Op:     cq.Sum,
		AggVar: "bal",
		Underlying: cq.Single(cq.CQ{
			Atoms: []cq.Atom{{Rel: "Acc", Args: []cq.Term{cq.C(db.Str("A1")), cq.V("t"), cq.V("c"), cq.V("bal")}}},
		}),
	}
	rep, err := e.RangeAnswers(q)
	if err != nil {
		t.Fatal(err)
	}
	a := rep.Answers[0]
	if a.GLB.AsInt() != 900 || a.LUB.AsInt() != 900 {
		t.Fatalf("range = [%v, %v], want [900, 900]", a.GLB, a.LUB)
	}
	if !a.FromConsistentPart {
		t.Error("expected consistent-part shortcut")
	}
	if rep.Stats.SATCalls != 0 || rep.Stats.MaxSATRuns != 0 {
		t.Errorf("shortcut still ran SAT: %+v", rep.Stats)
	}
}

func TestEmptyQueryResult(t *testing.T) {
	e := mustEngine(t, bank())
	q := cq.AggQuery{
		Op: cq.CountStar,
		Underlying: cq.Single(cq.CQ{
			Atoms: []cq.Atom{{Rel: "Cust", Args: []cq.Term{cq.V("cid"), cq.C(db.Str("Nobody")), cq.V("c")}}},
		}),
	}
	rep, err := e.RangeAnswers(q)
	if err != nil {
		t.Fatal(err)
	}
	a := rep.Answers[0]
	if a.GLB.AsInt() != 0 || a.LUB.AsInt() != 0 {
		t.Fatalf("empty COUNT range = [%v, %v], want [0, 0]", a.GLB, a.LUB)
	}
}

func TestUnsupportedAvg(t *testing.T) {
	e := mustEngine(t, bank())
	q := paperSumQuery()
	q.Op = cq.Avg
	if _, err := e.RangeAnswers(q); err == nil {
		t.Error("AVG should be rejected")
	}
}

func TestSumOverFloatRejected(t *testing.T) {
	s := db.NewSchema()
	s.MustAddRelation(&db.RelationSchema{
		Name: "F",
		Attrs: []db.Attribute{
			{Name: "k", Kind: db.KindString},
			{Name: "x", Kind: db.KindFloat},
		},
		Key: []int{0},
	})
	in := db.NewInstance(s)
	in.MustInsert("F", db.Str("a"), db.Float(1.5))
	in.MustInsert("F", db.Str("a"), db.Float(2.5))
	e := mustEngine(t, in)
	q := cq.AggQuery{
		Op:     cq.Sum,
		AggVar: "x",
		Underlying: cq.Single(cq.CQ{
			Atoms: []cq.Atom{{Rel: "F", Args: []cq.Term{cq.V("k"), cq.V("x")}}},
		}),
	}
	if _, err := e.RangeAnswers(q); err == nil {
		t.Error("SUM over float should be rejected with a scaling hint")
	}
}

func TestInvalidQueryRejected(t *testing.T) {
	e := mustEngine(t, bank())
	q := cq.AggQuery{
		Op:     cq.Sum,
		AggVar: "x",
		Underlying: cq.Single(cq.CQ{
			Atoms: []cq.Atom{{Rel: "Nope", Args: []cq.Term{cq.V("x")}}},
		}),
	}
	if _, err := e.RangeAnswers(q); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestDCModeRequiresConstraints(t *testing.T) {
	if _, err := New(bank(), Options{Mode: DCMode}); err == nil {
		t.Error("DCMode without DCs accepted")
	}
}

func TestStatsPopulated(t *testing.T) {
	e := mustEngine(t, bank())
	// The running example's one component is answered in closed form:
	// no SAT call, and the size of the formula it did not build.
	rep, err := e.RangeAnswers(paperSumQuery())
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Stats
	if st.Vars != 4 || st.Clauses != 8 || st.MaxVars != 4 || st.MaxClauses != 8 {
		t.Errorf("CNF stats = %d vars / %d clauses (max %d / %d), want 4 / 8 (4 / 8)",
			st.Vars, st.Clauses, st.MaxVars, st.MaxClauses)
	}
	if st.SATCalls != 0 || st.ClosedFormComponents != 1 {
		t.Errorf("SATCalls = %d, ClosedFormComponents = %d, want 0 and 1", st.SATCalls, st.ClosedFormComponents)
	}
	// Example IV.2, solved without elimination.
	rep, err = noElimination(e).RangeAnswers(coupledSumQuery())
	if err != nil {
		t.Fatal(err)
	}
	st = rep.Stats
	if st.Vars == 0 || st.Clauses == 0 {
		t.Errorf("CNF stats empty: %+v", st)
	}
	if st.SATCalls == 0 {
		t.Error("no SAT calls recorded")
	}
	if st.MaxVars == 0 || st.MaxVars > st.Vars {
		t.Errorf("MaxVars = %d, Vars = %d", st.MaxVars, st.Vars)
	}
}
