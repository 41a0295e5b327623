// Tests live in an external package so they can drive the planner
// through internal/core (which imports the planner) and cross-check the
// routed answers against internal/exhaustive.
package planner_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"aggcavsat/internal/conquer"
	"aggcavsat/internal/core"
	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
	"aggcavsat/internal/exhaustive"
	"aggcavsat/internal/obsv"
	"aggcavsat/internal/planner"
)

// treeSchema mirrors the conquer test schema (the generators are
// unexported there): fact table L(id, okey, g, v) with key id, dimension
// O(okey, c, status) with key okey, dimension C(ckey, seg) with key ckey
// referenced from O.c — the lineitem→orders→customer shape.
func treeSchema() *db.Schema {
	s := db.NewSchema()
	s.MustAddRelation(&db.RelationSchema{
		Name: "L",
		Attrs: []db.Attribute{
			{Name: "id", Kind: db.KindInt},
			{Name: "okey", Kind: db.KindInt},
			{Name: "g", Kind: db.KindString},
			{Name: "v", Kind: db.KindInt},
		},
		Key: []int{0},
	})
	s.MustAddRelation(&db.RelationSchema{
		Name: "O",
		Attrs: []db.Attribute{
			{Name: "okey", Kind: db.KindInt},
			{Name: "c", Kind: db.KindInt},
			{Name: "status", Kind: db.KindString},
		},
		Key: []int{0},
	})
	s.MustAddRelation(&db.RelationSchema{
		Name: "C",
		Attrs: []db.Attribute{
			{Name: "ckey", Kind: db.KindInt},
			{Name: "seg", Kind: db.KindString},
		},
		Key: []int{0},
	})
	return s
}

type rng uint64

func (r *rng) next(n int) int {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = rng(x)
	return int(x % uint64(n))
}

func ptrRng(seed uint64) *rng {
	r := rng(seed)
	return &r
}

// randomTreeInstance builds a small instance with key violations in all
// three relations and non-negative values, so every structurally
// rewritable query on it also executes on the rewrite route (no
// negative-SUM run-time rejection; scalar MIN/MAX may still be rejected
// when a repair empties the join).
func randomTreeInstance(r *rng) *db.Instance {
	in := db.NewInstance(treeSchema())
	segs := []string{"A", "B"}
	stats := []string{"x", "y"}
	groups := []string{"p", "q"}
	nC := 1 + r.next(2)
	for k := 0; k < nC; k++ {
		alts := 1 + r.next(2)
		for a := 0; a < alts; a++ {
			in.MustInsert("C", db.Int(int64(k)), db.Str(segs[a%len(segs)]))
		}
	}
	nO := 1 + r.next(3)
	for k := 0; k < nO; k++ {
		alts := 1 + r.next(2)
		for a := 0; a < alts; a++ {
			in.MustInsert("O",
				db.Int(int64(k)),
				db.Int(int64(r.next(nC+1))), // may dangle (missing customer)
				db.Str(stats[a%len(stats)]))
		}
	}
	nL := 2 + r.next(3)
	for k := 0; k < nL; k++ {
		alts := 1 + r.next(3)
		for a := 0; a < alts; a++ {
			in.MustInsert("L",
				db.Int(int64(k)),
				db.Int(int64(r.next(nO+1))), // may dangle
				db.Str(groups[(a+r.next(2))%len(groups)]),
				db.Int(int64(r.next(5)))) // non-negative values 0..4
		}
	}
	return in
}

func treeQuery(op cq.AggOp, grouped bool, withCustomer bool, statusFilter bool) cq.AggQuery {
	atoms := []cq.Atom{
		{Rel: "L", Args: []cq.Term{cq.V("id"), cq.V("okey"), cq.V("g"), cq.V("v")}},
		{Rel: "O", Args: []cq.Term{cq.V("okey"), cq.V("c"), cq.V("st")}},
	}
	if withCustomer {
		atoms = append(atoms, cq.Atom{Rel: "C", Args: []cq.Term{cq.V("c"), cq.V("seg")}})
	}
	var conds []cq.Condition
	if statusFilter {
		conds = append(conds, cq.Condition{Left: cq.V("st"), Op: cq.OpEQ, Right: cq.C(db.Str("x"))})
	}
	q := cq.AggQuery{
		Op:         op,
		AggVar:     "v",
		Underlying: cq.Single(cq.CQ{Atoms: atoms, Conds: conds}),
	}
	if grouped {
		q.GroupBy = []string{"g"}
	}
	return q
}

func newEngine(t testing.TB, in *db.Instance, mode planner.Mode) *core.Engine {
	t.Helper()
	eng, err := core.New(in, core.Options{Mode: core.KeysMode, Planner: mode, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestParseMode(t *testing.T) {
	cases := map[string]planner.Mode{
		"auto":          planner.ModeAuto,
		"force-sat":     planner.ModeSAT,
		"sat":           planner.ModeSAT,
		"force-rewrite": planner.ModeRewrite,
		"rewrite":       planner.ModeRewrite,
		" AUTO ":        planner.ModeAuto,
	}
	for s, want := range cases {
		got, err := planner.ParseMode(s)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := planner.ParseMode("greedy"); err == nil {
		t.Error("ParseMode accepted an unknown mode")
	}
	// The flag spellings round-trip; zero values stay on the legacy path.
	if planner.ModeSAT.String() != "force-sat" || planner.ModeAuto.String() != "auto" ||
		planner.ModeRewrite.String() != "force-rewrite" {
		t.Error("mode strings drifted from the flag spellings")
	}
	if planner.RouteSAT.String() != "sat" || planner.RouteRewrite.String() != "rewrite" {
		t.Error("route strings drifted from the metric label values")
	}
}

// TestDecideRoutesByMode pins the routing contract: force-sat and auto
// send every query to the solver, each with its own reason, and compile
// nothing; only force-rewrite classifies, returning a plan for an
// in-class query and the classifier's reason for any other.
func TestDecideRoutesByMode(t *testing.T) {
	in := randomTreeInstance(ptrRng(11))
	inClass := treeQuery(cq.Sum, true, true, false).BuildHead()
	selfJoin := selfJoinQuery().BuildHead()
	for _, tc := range []struct {
		mode           planner.Mode
		inClass, other planner.Decision
	}{
		{planner.ModeSAT,
			planner.Decision{Route: planner.RouteSAT, Reason: planner.ReasonForcedSAT},
			planner.Decision{Route: planner.RouteSAT, Reason: planner.ReasonForcedSAT}},
		{planner.ModeAuto,
			planner.Decision{Route: planner.RouteSAT, Reason: planner.ReasonAuto},
			planner.Decision{Route: planner.RouteSAT, Reason: planner.ReasonAuto}},
		{planner.ModeRewrite,
			planner.Decision{Route: planner.RouteRewrite},
			planner.Decision{Route: planner.RouteSAT, Reason: "query has self-joins"}},
	} {
		p := planner.New(in, tc.mode, false)
		d := p.Decide(inClass)
		if d.Route != tc.inClass.Route || d.Reason != tc.inClass.Reason || (d.Plan != nil) != (d.Route == planner.RouteRewrite) {
			t.Errorf("%v: in-class decision %+v, want %+v", tc.mode, d, tc.inClass)
		}
		if d := p.Decide(selfJoin); d.Route != tc.other.Route || d.Reason != tc.other.Reason || d.Plan != nil {
			t.Errorf("%v: self-join decision %+v, want %+v", tc.mode, d, tc.other)
		}
	}
}

func selfJoinQuery() cq.AggQuery {
	return cq.AggQuery{
		Op: cq.CountStar,
		Underlying: cq.Single(cq.CQ{Atoms: []cq.Atom{
			{Rel: "L", Args: []cq.Term{cq.V("a"), cq.V("k"), cq.V("g"), cq.V("v")}},
			{Rel: "L", Args: []cq.Term{cq.V("b"), cq.V("k"), cq.V("h"), cq.V("w")}},
		}}),
	}
}

// aggOffRootQuery aggregates over a child attribute (O.c) while L joins
// O on O's key: O must be the root to own the aggregation attribute,
// which makes L's join edge a non-key join.
func aggOffRootQuery() cq.AggQuery {
	return cq.AggQuery{
		Op:     cq.Sum,
		AggVar: "c",
		Underlying: cq.Single(cq.CQ{Atoms: []cq.Atom{
			{Rel: "L", Args: []cq.Term{cq.V("id"), cq.V("okey"), cq.V("g"), cq.V("v")}},
			{Rel: "O", Args: []cq.Term{cq.V("okey"), cq.V("c"), cq.V("st")}},
		}}),
	}
}

// cyclicSchema/cyclicQuery: A joins B on b and C on c, and B joins C on
// d — a triangle, so the join graph is not a tree from any root.
func cyclicSchema() *db.Schema {
	s := db.NewSchema()
	s.MustAddRelation(&db.RelationSchema{
		Name: "A",
		Attrs: []db.Attribute{
			{Name: "a", Kind: db.KindInt},
			{Name: "b", Kind: db.KindInt},
			{Name: "c", Kind: db.KindInt},
			{Name: "v", Kind: db.KindInt},
		},
		Key: []int{0},
	})
	s.MustAddRelation(&db.RelationSchema{
		Name: "B",
		Attrs: []db.Attribute{
			{Name: "b", Kind: db.KindInt},
			{Name: "d", Kind: db.KindInt},
		},
		Key: []int{0},
	})
	s.MustAddRelation(&db.RelationSchema{
		Name: "CC",
		Attrs: []db.Attribute{
			{Name: "c", Kind: db.KindInt},
			{Name: "d", Kind: db.KindInt},
		},
		Key: []int{0},
	})
	return s
}

func cyclicQuery() cq.AggQuery {
	return cq.AggQuery{
		Op:     cq.Sum,
		AggVar: "v",
		Underlying: cq.Single(cq.CQ{Atoms: []cq.Atom{
			{Rel: "A", Args: []cq.Term{cq.V("a"), cq.V("b"), cq.V("c"), cq.V("v")}},
			{Rel: "B", Args: []cq.Term{cq.V("b"), cq.V("d")}},
			{Rel: "CC", Args: []cq.Term{cq.V("c"), cq.V("d")}},
		}}),
	}
}

// TestClassifierRejections pins, for every structural rejection, the
// exact reason string force-rewrite reports: the Decide reason, the
// ErrRewriteUnavailable error, and the route stamped on the failed call.
// auto answers each of those queries on the solver route under its own
// reason. The strings are a contract with operators reading explain
// reports and journal entries — change them deliberately.
func TestClassifierRejections(t *testing.T) {
	in := randomTreeInstance(ptrRng(21))

	union := treeQuery(cq.Sum, false, false, false)
	union.Underlying.Disjuncts = append(union.Underlying.Disjuncts, union.Underlying.Disjuncts[0])

	cases := []struct {
		name   string
		q      cq.AggQuery
		reason string
	}{
		{"self_join", selfJoinQuery(), "query has self-joins"},
		{"agg_attr_off_root", aggOffRootQuery(), "join on non-key attribute okey of L"},
		{"union", union, "unions of conjunctive queries are not rewritable here"},
		{"distinct_operator", treeQuery(cq.SumDistinct, false, false, false),
			"operator " + cq.SumDistinct.String() + " not supported by the rewriting"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkRejected(t, in, tc.q, tc.reason)
		})
	}

	t.Run("cyclic_join", func(t *testing.T) {
		cin := db.NewInstance(cyclicSchema())
		cin.MustInsert("A", db.Int(1), db.Int(1), db.Int(1), db.Int(3))
		cin.MustInsert("B", db.Int(1), db.Int(7))
		cin.MustInsert("CC", db.Int(1), db.Int(7))
		checkRejected(t, cin, cyclicQuery(), "join graph is not a tree")
	})

	t.Run("forced_sat", func(t *testing.T) {
		eng := newEngine(t, in, planner.ModeSAT)
		rep, err := eng.RangeAnswers(treeQuery(cq.Sum, false, false, false))
		if err != nil {
			t.Fatal(err)
		}
		checkSATRoute(t, rep, planner.ReasonForcedSAT)
	})

	t.Run("denial_constraints", func(t *testing.T) {
		// A DC-mode engine under force-rewrite rejects before
		// classification; under auto it routes like any other query.
		q := treeQuery(cq.Sum, false, false, false).BuildHead()
		d := planner.New(in, planner.ModeRewrite, true).Decide(q)
		if d.Route != planner.RouteSAT || d.Reason != planner.ReasonDenialConstraints || d.Plan != nil {
			t.Fatalf("force-rewrite DC decision: %+v", d)
		}
		d = planner.New(in, planner.ModeAuto, true).Decide(q)
		if d.Route != planner.RouteSAT || d.Reason != planner.ReasonAuto || d.Plan != nil {
			t.Fatalf("auto DC decision: %+v", d)
		}
	})
}

// checkRejected asserts that force-rewrite rejects q with reason — in
// Decide, in the ErrRewriteUnavailable error and on the journal line of
// the failed call — and that auto answers it on the solver route.
func checkRejected(t *testing.T, in *db.Instance, q cq.AggQuery, reason string) {
	t.Helper()
	if d := planner.New(in, planner.ModeRewrite, false).Decide(q.BuildHead()); d.Route != planner.RouteSAT || d.Reason != reason {
		t.Fatalf("force-rewrite decision %+v, want sat / %q", d, reason)
	}
	var buf bytes.Buffer
	j := obsv.NewJournal(&buf, 0)
	rw, err := core.New(in, core.Options{Mode: core.KeysMode, Planner: planner.ModeRewrite, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	_, err = rw.RangeAnswers(q)
	if !errors.Is(err, planner.ErrRewriteUnavailable) || !strings.HasSuffix(err.Error(), ": "+reason) {
		t.Fatalf("force-rewrite error %v, want ErrRewriteUnavailable with reason %q", err, reason)
	}
	j.Close()
	lines, err := obsv.ReadJournal(&buf)
	if err != nil || len(lines) != 1 {
		t.Fatalf("journal: %d lines, err %v", len(lines), err)
	}
	if lines[0].RouteReason != reason {
		t.Fatalf("journal route reason %q, want %q", lines[0].RouteReason, reason)
	}
	rep, err := newEngine(t, in, planner.ModeAuto).RangeAnswers(q)
	if err != nil {
		t.Fatal(err)
	}
	checkSATRoute(t, rep, planner.ReasonAuto)
}

// checkSATRoute asserts the report and its explain block agree on the
// SAT route and the given reason.
func checkSATRoute(t *testing.T, rep *core.Report, reason string) {
	t.Helper()
	if rep.Route != "sat" || rep.RouteReason != reason {
		t.Fatalf("route %q reason %q, want sat / %q", rep.Route, rep.RouteReason, reason)
	}
	if rep.Explain == nil {
		t.Fatal("explain missing")
	}
	if rep.Explain.Route != "sat" || rep.Explain.RouteReason != reason {
		t.Fatalf("explain route %q reason %q, want sat / %q",
			rep.Explain.Route, rep.Explain.RouteReason, reason)
	}
}

// TestRuntimeFallback covers the data-dependent rejections the
// classifier cannot see: under force-rewrite the plan starts executing,
// rejects itself and the call fails with conquer.ErrNotInClass (not
// ErrRewriteUnavailable). auto never runs the plan, so nothing falls
// back: it answers on the solver route.
func TestRuntimeFallback(t *testing.T) {
	check := func(t *testing.T, in *db.Instance, q cq.AggQuery, rejection string) *core.Report {
		t.Helper()
		_, err := newEngine(t, in, planner.ModeRewrite).RangeAnswers(q)
		if !errors.Is(err, conquer.ErrNotInClass) || errors.Is(err, planner.ErrRewriteUnavailable) {
			t.Fatalf("force-rewrite error %v, want a run-time conquer.ErrNotInClass", err)
		}
		if !strings.Contains(err.Error(), rejection) {
			t.Fatalf("force-rewrite error %q does not name the rejection %q", err, rejection)
		}
		rep, err := newEngine(t, in, planner.ModeAuto).RangeAnswers(q)
		if err != nil {
			t.Fatal(err)
		}
		checkSATRoute(t, rep, planner.ReasonAuto)
		return rep
	}

	t.Run("negative_sum", func(t *testing.T) {
		neg := db.NewInstance(treeSchema())
		neg.MustInsert("L", db.Int(1), db.Int(1), db.Str("p"), db.Int(-5))
		neg.MustInsert("O", db.Int(1), db.Int(1), db.Str("x"))
		rep := check(t, neg, treeQuery(cq.Sum, false, false, false), "SUM over negative values")
		if len(rep.Answers) != 1 || rep.Answers[0].GLB.AsInt() != -5 || rep.Answers[0].LUB.AsInt() != -5 {
			t.Fatalf("auto answers: %+v", rep.Answers)
		}
	})

	t.Run("scalar_min_empty", func(t *testing.T) {
		// L's sole key group has a variant dangling into a missing order:
		// one repair empties the join, so scalar MIN has EmptyPossible,
		// which the rewriting cannot express.
		in := db.NewInstance(treeSchema())
		in.MustInsert("L", db.Int(1), db.Int(1), db.Str("p"), db.Int(3))
		in.MustInsert("L", db.Int(1), db.Int(9), db.Str("p"), db.Int(4))
		in.MustInsert("O", db.Int(1), db.Int(1), db.Str("x"))
		rep := check(t, in, treeQuery(cq.Min, false, false, false), "possibly-empty result")
		if len(rep.Answers) != 1 || !rep.Answers[0].EmptyPossible {
			t.Fatalf("auto answers: %+v", rep.Answers)
		}
	})
}

// TestForceRewrite pins the force-rewrite contract: in-class queries
// answer on the rewrite route and structurally rejected queries fail
// with ErrRewriteUnavailable (TestRuntimeFallback covers the run-time
// rejections).
func TestForceRewrite(t *testing.T) {
	in := randomTreeInstance(ptrRng(31))
	eng := newEngine(t, in, planner.ModeRewrite)

	rep, err := eng.RangeAnswers(treeQuery(cq.Sum, true, true, true))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Route != "rewrite" || rep.RouteReason != "" {
		t.Fatalf("route %q reason %q, want rewrite with empty reason", rep.Route, rep.RouteReason)
	}
	if rep.Explain == nil || rep.Explain.Route != "rewrite" {
		t.Fatalf("explain: %+v", rep.Explain)
	}

	if _, err := eng.RangeAnswers(selfJoinQuery()); !errors.Is(err, planner.ErrRewriteUnavailable) {
		t.Fatalf("structural rejection under force-rewrite: %v", err)
	}
}

// TestRouteCountersSumToCalls asserts the metrics contract: every
// RangeAnswers call increments exactly one of the two route counters —
// a call force-rewrite rejects counts under sat, the route its reason
// explains — and auto never increments the rewrite counter.
func TestRouteCountersSumToCalls(t *testing.T) {
	reg := obsv.NewRegistry()
	in := randomTreeInstance(ptrRng(41))
	queries := []cq.AggQuery{
		treeQuery(cq.Sum, false, false, false),         // in class
		treeQuery(cq.Count, true, true, false),         // in class
		treeQuery(cq.Max, true, false, true),           // in class
		selfJoinQuery(),                                // structural rejection
		treeQuery(cq.SumDistinct, false, false, false), // operator rejection
	}
	counts := func() (rw, sat int64) {
		return reg.Counter(obsv.MetricRouteRewrite).Value(), reg.Counter(obsv.MetricRouteSAT).Value()
	}
	for _, tc := range []struct {
		mode     planner.Mode
		rewrites int64 // calls on the rewrite route; the first ones answer
	}{{planner.ModeAuto, 0}, {planner.ModeRewrite, 3}} {
		eng, err := core.New(in, core.Options{Mode: core.KeysMode, Planner: tc.mode, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		rw0, sat0 := counts()
		for i, q := range queries {
			if _, err := eng.RangeAnswers(q); err != nil && (tc.mode == planner.ModeAuto || i < 3) {
				t.Fatalf("%v: %v", tc.mode, err)
			}
		}
		rw, sat := counts()
		rw, sat = rw-rw0, sat-sat0
		if rw+sat != int64(len(queries)) || rw != tc.rewrites {
			t.Fatalf("%v: route counters rewrite=%d sat=%d, want %d rewrites of %d calls",
				tc.mode, rw, sat, tc.rewrites, len(queries))
		}
	}
}

// TestPlannerEquivalence is the property test of the routes: on random
// inconsistent instances, planner-auto, forced-rewrite and brute-force
// repair enumeration must produce identical range consistent answers
// for every operator and query shape wherever the rewriting answers —
// and auto must stay on the solver route while the rewriting answers
// most of the shapes.
func TestPlannerEquivalence(t *testing.T) {
	ops := []cq.AggOp{cq.CountStar, cq.Count, cq.Sum, cq.Min, cq.Max}
	trials := 30
	if testing.Short() {
		trials = 8
	}
	calls, rewritten := 0, 0
	for seed := 1; seed <= trials; seed++ {
		r := rng(seed*693951 + 17)
		in := randomTreeInstance(&r)
		auto := newEngine(t, in, planner.ModeAuto)
		rw := newEngine(t, in, planner.ModeRewrite)
		for _, op := range ops {
			for _, grouped := range []bool{false, true} {
				for _, withC := range []bool{false, true} {
					for _, filt := range []bool{false, true} {
						q := treeQuery(op, grouped, withC, filt)
						label := fmt.Sprintf("seed %d op %v grouped %v withC %v filt %v",
							seed, op, grouped, withC, filt)
						calls++
						if checkEquivalence(t, label, in, q, auto, rw) {
							rewritten++
						}
					}
				}
			}
		}
	}
	if 2*rewritten < calls {
		t.Fatalf("the rewriting answered %d of %d calls; the oracle barely ran", rewritten, calls)
	}
}

// checkEquivalence checks auto against exhaustive repair enumeration
// and, when force-rewrite answers q, the rewriting against both. It
// reports whether the rewriting answered; the only rejection allowed is
// a run-time one (every tree query is in the class).
func checkEquivalence(t *testing.T, label string, in *db.Instance, q cq.AggQuery, auto, rw *core.Engine) (rewritten bool) {
	t.Helper()
	want, err := exhaustive.RangeAnswers(in, q, exhaustive.Options{Mode: exhaustive.ModeKeys})
	if err != nil {
		t.Fatalf("%s: exhaustive: %v", label, err)
	}
	a, err := auto.RangeAnswers(q)
	if err != nil {
		t.Fatalf("%s: auto: %v", label, err)
	}
	if a.Route != "sat" || a.RouteReason != planner.ReasonAuto {
		t.Fatalf("%s: auto route %q (%s), want the solver route", label, a.Route, a.RouteReason)
	}
	compareToExhaustive(t, label+" [auto]", a.Answers, want)
	r, err := rw.RangeAnswers(q)
	switch {
	case errors.Is(err, conquer.ErrNotInClass) && !errors.Is(err, planner.ErrRewriteUnavailable):
		return false
	case err != nil:
		t.Fatalf("%s: force-rewrite: %v", label, err)
	}
	if r.Route != "rewrite" {
		t.Fatalf("%s: force-rewrite route %q", label, r.Route)
	}
	compareToExhaustive(t, label+" [rewrite]", r.Answers, want)
	for i := range a.Answers {
		if x, y := a.Answers[i], r.Answers[i]; x.FromConsistentPart != y.FromConsistentPart {
			t.Fatalf("%s: answer %d diverges between routes:\n auto    %+v\n rewrite %+v", label, i, x, y)
		}
	}
	return true
}

func compareToExhaustive(t *testing.T, label string, got []core.GroupAnswer, want []exhaustive.GroupRange) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d answers vs exhaustive %d\n got %+v\nwant %+v", label, len(got), len(want), got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Key.Compare(w.Key) != 0 {
			t.Fatalf("%s: key %v vs %v", label, g.Key, w.Key)
		}
		if g.EmptyPossible != w.EmptyPossible {
			t.Fatalf("%s: key %v EmptyPossible %v vs exhaustive %v", label, g.Key, g.EmptyPossible, w.EmptyPossible)
		}
		if !valuesMatch(g.GLB, w.GLB) || !valuesMatch(g.LUB, w.LUB) {
			t.Fatalf("%s: key %v range [%v,%v] vs exhaustive [%v,%v]",
				label, g.Key, g.GLB, g.LUB, w.GLB, w.LUB)
		}
	}
}

func valuesMatch(a, b db.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() == b.IsNull()
	}
	return a.Equal(b)
}

// TestTrimReason pins the prefix-stripping used for journal/explain
// reason strings.
func TestTrimReason(t *testing.T) {
	err := fmt.Errorf("%w: query has self-joins", conquer.ErrNotInClass)
	if got := planner.TrimReason(err); got != "query has self-joins" {
		t.Fatalf("TrimReason = %q", got)
	}
	other := errors.New("context deadline exceeded")
	if got := planner.TrimReason(other); got != other.Error() {
		t.Fatalf("TrimReason on non-class error = %q", got)
	}
}

// FuzzPlannerEquivalence is the randomized cross-check: arbitrary
// (seed, operator, shape) triples must keep planner-auto,
// forced-rewrite (wherever it answers) and exhaustive repair
// enumeration in exact agreement. The seed corpus in testdata covers
// every operator, and run-time rejections of the rewriting.
func FuzzPlannerEquivalence(f *testing.F) {
	f.Add(uint64(1), 0, 0)
	f.Add(uint64(7), 2, 7)
	f.Add(uint64(1234567), 3, 5)
	f.Add(uint64(42), 4, 2)
	f.Fuzz(func(t *testing.T, seed uint64, opIdx int, shape int) {
		ops := []cq.AggOp{cq.CountStar, cq.Count, cq.Sum, cq.Min, cq.Max}
		if opIdx < 0 {
			opIdx = -opIdx
		}
		if opIdx < 0 { // math.MinInt negates to itself
			opIdx = 0
		}
		op := ops[opIdx%len(ops)]
		if seed == 0 {
			seed = 1
		}
		r := rng(seed)
		in := randomTreeInstance(&r)
		q := treeQuery(op, shape&1 != 0, shape&2 != 0, shape&4 != 0)
		auto := newEngine(t, in, planner.ModeAuto)
		rw := newEngine(t, in, planner.ModeRewrite)
		label := fmt.Sprintf("seed %d op %v shape %#x", seed, op, shape&7)
		checkEquivalence(t, label, in, q, auto, rw)
	})
}
