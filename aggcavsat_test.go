package aggcavsat

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"aggcavsat/internal/cq"
	"aggcavsat/internal/sqlparse"
)

// bank builds the paper's Table I database through the public API.
func bank(t *testing.T) *Instance {
	t.Helper()
	s := NewSchema()
	mustAdd := func(r *RelationSchema) {
		t.Helper()
		if err := s.AddRelation(r); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(&RelationSchema{
		Name: "Cust",
		Attrs: []Attribute{
			{Name: "CID", Kind: KindString},
			{Name: "NAME", Kind: KindString},
			{Name: "CITY", Kind: KindString},
		},
		Key: []int{0},
	})
	mustAdd(&RelationSchema{
		Name: "Acc",
		Attrs: []Attribute{
			{Name: "ACCID", Kind: KindString},
			{Name: "TYPE", Kind: KindString},
			{Name: "CITY", Kind: KindString},
			{Name: "BAL", Kind: KindInt},
		},
		Key: []int{0},
	})
	mustAdd(&RelationSchema{
		Name: "CustAcc",
		Attrs: []Attribute{
			{Name: "CID", Kind: KindString},
			{Name: "ACCID", Kind: KindString},
		},
		Key: []int{0, 1},
	})
	in := NewInstance(s)
	in.MustInsert("Cust", Str("C1"), Str("John"), Str("LA"))
	in.MustInsert("Cust", Str("C2"), Str("Mary"), Str("LA"))
	in.MustInsert("Cust", Str("C2"), Str("Mary"), Str("SF"))
	in.MustInsert("Cust", Str("C3"), Str("Don"), Str("SF"))
	in.MustInsert("Cust", Str("C4"), Str("Jen"), Str("LA"))
	in.MustInsert("Acc", Str("A1"), Str("Check."), Str("LA"), Int(900))
	in.MustInsert("Acc", Str("A2"), Str("Check."), Str("LA"), Int(1000))
	in.MustInsert("Acc", Str("A3"), Str("Saving"), Str("SJ"), Int(1200))
	in.MustInsert("Acc", Str("A3"), Str("Saving"), Str("SF"), Int(-100))
	in.MustInsert("Acc", Str("A4"), Str("Saving"), Str("SJ"), Int(300))
	in.MustInsert("CustAcc", Str("C1"), Str("A1"))
	in.MustInsert("CustAcc", Str("C2"), Str("A2"))
	in.MustInsert("CustAcc", Str("C2"), Str("A3"))
	in.MustInsert("CustAcc", Str("C3"), Str("A4"))
	return in
}

func TestQueryScalarSQL(t *testing.T) {
	sys, err := Open(bank(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query(`SELECT SUM(Acc.BAL) FROM Acc, CustAcc
		WHERE Acc.ACCID = CustAcc.ACCID AND CustAcc.CID = 'C2'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || len(res.Rows[0].Ranges) != 1 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	r := res.Rows[0].Ranges[0]
	if r.GLB.AsInt() != 900 || r.LUB.AsInt() != 2200 {
		t.Fatalf("range = %s, want [900, 2200]", FormatRange(r))
	}
	// C2's accounts touch one violating key-equal group (A3's): the one
	// component is answered in closed form, with no SAT call.
	if st := res.Stats; st.SATCalls != 0 || st.ClosedFormComponents != 1 || st.Vars != 4 || st.Clauses != 8 {
		t.Errorf("closed-form stats = %d SAT calls, %d closed-form components, %d/%d vars/clauses; want 0, 1, 4/8",
			st.SATCalls, st.ClosedFormComponents, st.Vars, st.Clauses)
	}
	// Reached through Mary's two Cust facts, the same accounts couple two
	// violating groups: the component is eliminated at width 1, still
	// with no SAT call.
	res, err = sys.Query(coupledSumSQL)
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatRange(res.Rows[0].Ranges[0]); got != "[900, 2200]" {
		t.Fatalf("coupled range = %s, want [900, 2200]", got)
	}
	if st := res.Stats; st.SATCalls != 0 || st.ClosedFormComponents != 1 || st.Vars != 9 || st.Clauses != 21 {
		t.Errorf("coupled stats = %d SAT calls, %d closed-form components, %d/%d vars/clauses; want 0, 1, 9/21",
			st.SATCalls, st.ClosedFormComponents, st.Vars, st.Clauses)
	}
	// SUM(DISTINCT) over the same witnesses goes to the solver.
	res, err = sys.Query(coupledDistinctSQL)
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatRange(res.Rows[0].Ranges[0]); got != "[900, 2200]" {
		t.Fatalf("distinct range = %s, want [900, 2200]", got)
	}
	if res.Stats.SATCalls == 0 || res.Stats.ClosedFormComponents != 0 {
		t.Errorf("distinct stats: %+v, want SAT calls and no closed-form component", res.Stats)
	}
}

// coupledSumSQL sums Mary's account balances through her Cust facts:
// its witnesses couple Mary's key-equal group with account A3's.
const coupledSumSQL = `SELECT SUM(Acc.BAL) FROM Cust, CustAcc, Acc
	WHERE Cust.CID = CustAcc.CID AND CustAcc.ACCID = Acc.ACCID AND Cust.NAME = 'Mary'`

// coupledDistinctSQL is coupledSumSQL over distinct balances, which
// group elimination does not take: its component is encoded and solved.
const coupledDistinctSQL = `SELECT SUM(DISTINCT Acc.BAL) FROM Cust, CustAcc, Acc
	WHERE Cust.CID = CustAcc.CID AND CustAcc.ACCID = Acc.ACCID AND Cust.NAME = 'Mary'`

func TestQueryGroupedSQL(t *testing.T) {
	sys, _ := Open(bank(t), Options{})
	res, err := sys.Query(`SELECT CITY, COUNT(*) FROM Cust GROUP BY CITY ORDER BY CITY DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 2 || res.Columns[0] != "CITY" {
		t.Errorf("columns = %v", res.Columns)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	// DESC: SF first.
	if res.Rows[0].Key[0].AsString() != "SF" {
		t.Errorf("order by desc broken: %v", res.Rows[0].Key)
	}
	sf := res.Rows[0].Ranges[0]
	if sf.GLB.AsInt() != 1 || sf.LUB.AsInt() != 2 {
		t.Errorf("SF range = %s", FormatRange(sf))
	}
}

func TestQueryMultipleAggregates(t *testing.T) {
	sys, _ := Open(bank(t), Options{})
	res, err := sys.Query(`SELECT CITY, COUNT(*), MAX(BAL) FROM Acc GROUP BY CITY ORDER BY CITY`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 3 {
		t.Fatalf("columns = %v", res.Columns)
	}
	for _, row := range res.Rows {
		if len(row.Ranges) != 2 {
			t.Fatalf("row %v has %d ranges", row.Key, len(row.Ranges))
		}
	}
}

func TestQueryTop(t *testing.T) {
	sys, _ := Open(bank(t), Options{})
	res, err := sys.Query(`SELECT TOP 1 CITY, COUNT(*) FROM Cust GROUP BY CITY ORDER BY CITY`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Key[0].AsString() != "LA" {
		t.Fatalf("rows = %+v", res.Rows)
	}
}

func TestDenialConstraintMode(t *testing.T) {
	in := bank(t)
	var dcs []DenialConstraint
	for _, rel := range []string{"Cust", "Acc", "CustAcc"} {
		rs := in.Schema().Relation(rel)
		var nonKey []string
		for i, a := range rs.Attrs {
			isKey := false
			for _, k := range rs.Key {
				if k == i {
					isKey = true
				}
			}
			if !isKey {
				nonKey = append(nonKey, a.Name)
			}
		}
		if len(nonKey) == 0 {
			continue
		}
		fd, err := FD(rs, rs.KeyNames(), nonKey...)
		if err != nil {
			t.Fatal(err)
		}
		dcs = append(dcs, fd...)
	}
	sys, err := Open(in, Options{DenialConstraints: dcs})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query(`SELECT SUM(Acc.BAL) FROM Acc, CustAcc
		WHERE Acc.ACCID = CustAcc.ACCID AND CustAcc.CID = 'C2'`)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Rows[0].Ranges[0]
	if r.GLB.AsInt() != 900 || r.LUB.AsInt() != 2200 {
		t.Fatalf("DC-mode range = %s, want [900, 2200]", FormatRange(r))
	}
}

// TestDefaultSolverIsRC2: the zero Options value solves with the
// built-in RC2 solver, as the explain report's solver names show (a
// DISTINCT aggregate always reaches the solver).
func TestDefaultSolverIsRC2(t *testing.T) {
	sys, err := Open(bank(t), Options{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query(`SELECT COUNT(DISTINCT Acc.TYPE) FROM Cust, Acc, CustAcc
		WHERE Cust.CID = CustAcc.CID AND Acc.ACCID = CustAcc.ACCID
		AND Cust.CITY = Acc.CITY`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Explains) != 1 {
		t.Fatalf("explains = %d, want 1", len(res.Explains))
	}
	ex := res.Explains[0]
	if ex.Options.Algorithm != "rc2" {
		t.Errorf("default solver = %q, want rc2", ex.Options.Algorithm)
	}
	passes := 0
	for _, c := range ex.Components {
		for _, d := range c.Directions {
			passes++
			if d.Algorithm != "rc2" {
				t.Errorf("component %d %s pass solved with %q, want rc2", c.Index, d.Direction, d.Algorithm)
			}
		}
	}
	if passes == 0 {
		t.Error("no solver pass recorded; the query never reached the solver")
	}
}

func TestConsistentAnswersAPI(t *testing.T) {
	sys, _ := Open(bank(t), Options{})
	u := cq.Single(cq.CQ{
		Head:  []string{"name"},
		Atoms: []cq.Atom{{Rel: "Cust", Args: []cq.Term{cq.V("cid"), cq.V("name"), cq.V("city")}}},
	})
	ans, err := sys.ConsistentAnswers(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 4 {
		t.Errorf("consistent names = %v", ans)
	}
}

func TestRangeAnswersAlgebraic(t *testing.T) {
	sys, _ := Open(bank(t), Options{})
	q := AggQuery{
		Op:     cq.Max,
		AggVar: "bal",
		Underlying: cq.Single(cq.CQ{
			Atoms: []cq.Atom{{Rel: "Acc", Args: []cq.Term{cq.V("id"), cq.V("t"), cq.V("c"), cq.V("bal")}}},
		}),
	}
	ans, stats, err := sys.RangeAnswers(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 {
		t.Fatalf("%+v", ans)
	}
	if ans[0].GLB.AsInt() != 1000 || ans[0].LUB.AsInt() != 1200 {
		t.Errorf("MAX range = [%v, %v], want [1000, 1200]", ans[0].GLB, ans[0].LUB)
	}
	// Group elimination answers the MIN/MAX probes: no SAT call, and the
	// stats count the formula the SAT probes would have built.
	if stats.SATCalls != 0 || stats.Vars == 0 {
		t.Errorf("SAT calls %d, CNF vars %d: want 0 and the counted formula", stats.SATCalls, stats.Vars)
	}
}

func TestQueryErrors(t *testing.T) {
	sys, _ := Open(bank(t), Options{})
	if _, err := sys.Query("SELECT nonsense"); err == nil {
		t.Error("bad SQL accepted")
	}
	if _, err := sys.Query("SELECT AVG(BAL) FROM Acc"); err == nil {
		t.Error("AVG should be rejected by the engine")
	}
}

func TestFormatRange(t *testing.T) {
	r := Range{GLB: Int(5), LUB: Int(9)}
	if FormatRange(r) != "[5, 9]" {
		t.Error(FormatRange(r))
	}
	r = Range{GLB: Int(5), LUB: Int(5)}
	if FormatRange(r) != "5" {
		t.Error(FormatRange(r))
	}
	// Null endpoints render as documented tokens, never as a raw null
	// leaking into the interval syntax.
	r = Range{GLB: Null(), LUB: Int(5)}
	if got := FormatRange(r); got != "[-∞, 5]" {
		t.Errorf("half-open glb = %q, want [-∞, 5]", got)
	}
	r = Range{GLB: Int(5), LUB: Null()}
	if got := FormatRange(r); got != "[5, +∞]" {
		t.Errorf("half-open lub = %q, want [5, +∞]", got)
	}
	r = Range{}
	if got := FormatRange(r); got != "NULL" {
		t.Errorf("null range = %q, want NULL", got)
	}
}

func TestConsistentPartShortcutPublicAPI(t *testing.T) {
	// A query touching only consistent facts reports FromConsistentPart
	// and makes no SAT calls.
	sys, _ := Open(bank(t), Options{})
	res, err := sys.Query(`SELECT COUNT(*) FROM Cust WHERE NAME = 'John'`)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Rows[0].Ranges[0]
	if !r.FromConsistentPart {
		t.Error("expected consistent-part answer")
	}
	if FormatRange(r) != "1" {
		t.Errorf("range = %s", FormatRange(r))
	}
	if res.Stats.SATCalls != 0 {
		t.Errorf("SAT calls = %d, want 0", res.Stats.SATCalls)
	}
}

func TestLoadDirRoundTrip(t *testing.T) {
	in := bank(t)
	dir := t.TempDir()
	if err := in.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDir(in.Schema(), dir)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Open(loaded, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query(`SELECT SUM(Acc.BAL) FROM Acc, CustAcc
		WHERE Acc.ACCID = CustAcc.ACCID AND CustAcc.CID = 'C2'`)
	if err != nil {
		t.Fatal(err)
	}
	if FormatRange(res.Rows[0].Ranges[0]) != "[900, 2200]" {
		t.Errorf("after CSV round trip: %s", FormatRange(res.Rows[0].Ranges[0]))
	}
}

func TestDistinctThroughSQL(t *testing.T) {
	sys, _ := Open(bank(t), Options{})
	res, err := sys.Query(`SELECT COUNT(DISTINCT TYPE) FROM Acc`)
	if err != nil {
		t.Fatal(err)
	}
	if FormatRange(res.Rows[0].Ranges[0]) != "2" {
		t.Errorf("COUNT(DISTINCT) = %s, want 2", FormatRange(res.Rows[0].Ranges[0]))
	}
	res, err = sys.Query(`SELECT SUM(DISTINCT BAL) FROM Acc WHERE TYPE = 'Saving'`)
	if err != nil {
		t.Fatal(err)
	}
	// Repairs: {1200, 300} → 1500 or {-100, 300} → 200.
	if FormatRange(res.Rows[0].Ranges[0]) != "[200, 1500]" {
		t.Errorf("SUM(DISTINCT) = %s, want [200, 1500]", FormatRange(res.Rows[0].Ranges[0]))
	}
}

func TestMinMaxThroughSQL(t *testing.T) {
	sys, _ := Open(bank(t), Options{})
	res, err := sys.Query(`SELECT MIN(BAL), MAX(BAL) FROM Acc`)
	if err != nil {
		t.Fatal(err)
	}
	minR, maxR := res.Rows[0].Ranges[0], res.Rows[0].Ranges[1]
	// MIN possible values: with f8 → 300; with f9 → -100.
	if FormatRange(minR) != "[-100, 300]" {
		t.Errorf("MIN = %s", FormatRange(minR))
	}
	// MAX possible values: with f8 → 1200; with f9 → 1000.
	if FormatRange(maxR) != "[1000, 1200]" {
		t.Errorf("MAX = %s", FormatRange(maxR))
	}
}

// TestExternalSolverLoop closes the loop on the paper's process-level
// MaxHS integration: the system writes DIMACS WCNF and shells out to a
// MaxSAT binary — here cmd/wcnfsolve, i.e. this repository's own solver
// behind the external interface.
func TestExternalSolverLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := filepath.Join(t.TempDir(), "wcnfsolve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/wcnfsolve")
	cmd.Dir = "."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Skipf("cannot build wcnfsolve: %v (%s)", err, out)
	}
	// The path alone selects the external solver.
	sys, err := Open(bank(t), Options{ExternalSolverPath: bin, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Query(coupledDistinctSQL)
	if err != nil {
		t.Fatal(err)
	}
	if FormatRange(res.Rows[0].Ranges[0]) != "[900, 2200]" {
		t.Errorf("external-solver range = %s", FormatRange(res.Rows[0].Ranges[0]))
	}
	ex := res.Explains[0]
	if ex.Options.Algorithm != "external" {
		t.Errorf("solver = %q, want external", ex.Options.Algorithm)
	}
	if len(ex.Components) == 0 {
		t.Error("no solved component")
	}
	for _, c := range ex.Components {
		for _, d := range c.Directions {
			if d.Algorithm != "external" {
				t.Errorf("component %d %s pass solved with %q, want external", c.Index, d.Direction, d.Algorithm)
			}
		}
	}
	// A component with one violating group needs no solver, external or
	// not; its counted size is the Reduction IV.1 formula's alone, as on
	// the built-in solver.
	res, err = sys.Query(`SELECT SUM(Acc.BAL) FROM Acc, CustAcc
		WHERE Acc.ACCID = CustAcc.ACCID AND CustAcc.CID = 'C2'`)
	if err != nil {
		t.Fatal(err)
	}
	if FormatRange(res.Rows[0].Ranges[0]) != "[900, 2200]" {
		t.Errorf("closed-form range = %s", FormatRange(res.Rows[0].Ranges[0]))
	}
	if st := res.Stats; st.SATCalls != 0 || st.ClosedFormComponents != 1 || st.Vars != 4 || st.Clauses != 8 ||
		st.MaxVars != 4 || st.MaxClauses != 8 {
		t.Errorf("closed-form stats = %+v", st)
	}
}

func TestExplainAndJournalThroughFacade(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Open(bank(t), Options{Explain: true, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	sql := `SELECT CITY, COUNT(*), MAX(BAL) FROM Acc GROUP BY CITY ORDER BY CITY`
	res, err := sys.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Explains) != 2 {
		t.Fatalf("explains = %d, want one per aggregate", len(res.Explains))
	}
	for i, ex := range res.Explains {
		if ex == nil || len(ex.Components) == 0 {
			t.Errorf("explain %d empty: %+v", i, ex)
		}
	}
	if res.Explains[0].Op != "range_answers/COUNT(*)" || res.Explains[1].Op != "range_answers/MAX" {
		t.Errorf("explain ops = %q, %q", res.Explains[0].Op, res.Explains[1].Op)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadJournalFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("journal lines = %d, want one per aggregate solve", len(entries))
	}
	for i, e := range entries {
		if e.Query != sql {
			t.Errorf("line %d label = %q, want the SQL text", i, e.Query)
		}
		// The explain report is the journal line.
		if e.Fingerprint != res.Explains[i].Fingerprint || len(e.Components) != len(res.Explains[i].Components) {
			t.Errorf("line %d = %+v, explain report %+v", i, e, res.Explains[i])
		}
	}
}

// TestMultiAggregateStatsAdd: a statement's Stats is the Stats.Add of
// its per-aggregate engine calls, whose counters each explain report
// (the call's wide event) carries.
func TestMultiAggregateStatsAdd(t *testing.T) {
	sys, err := Open(bank(t), Options{Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		sql string
		// maxsatRuns and closedForm are the statement's exact counts:
		// Acc alone has one violating group per witness, the join
		// through Cust couples Mary's group with A3's, and only the
		// DISTINCT aggregate reaches a solver (group elimination answers
		// the consistency checks and the MAX probes).
		sat                    bool
		maxsatRuns, closedForm int
	}{
		{`SELECT CITY, COUNT(*), SUM(BAL), MAX(BAL) FROM Acc GROUP BY CITY`, false, 0, 2},
		{`SELECT Cust.CITY, COUNT(*), SUM(DISTINCT Acc.BAL) FROM Cust, CustAcc, Acc
			WHERE Cust.CID = CustAcc.CID AND CustAcc.ACCID = Acc.ACCID GROUP BY Cust.CITY`, true, 4, 2},
	} {
		res, err := sys.Query(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Explains) != len(res.Columns)-1 {
			t.Fatalf("explains = %d, want one per aggregate", len(res.Explains))
		}
		var want Stats
		for _, ex := range res.Explains {
			// A phase's milliseconds convert back to its exact
			// nanoseconds.
			d := func(ms float64) time.Duration { return time.Duration(math.Round(ms * 1e6)) }
			want.Add(Stats{
				WitnessTime: d(ex.WitnessMS), ConstraintTime: d(ex.ConstraintMS), EncodeTime: d(ex.EncodeMS),
				SolveTime: d(ex.SolveMS), RewriteTime: d(ex.RewriteMS),
				SATCalls: ex.SATCalls, MaxSATRuns: ex.MaxSATRuns, Vars: ex.Vars, Clauses: ex.Clauses,
				MaxVars: ex.MaxVars, MaxClauses: ex.MaxClauses, ConsistentPartSkips: ex.ConsistentSkips,
				ClosedFormComponents: ex.ClosedForm, FoldedAssignments: ex.Folded,
				WitnessAllocBytes: ex.WitnessAllocBytes, EncodeAllocBytes: ex.EncodeAllocBytes,
				SolveAllocBytes: ex.SolveAllocBytes, HeapBytes: ex.HeapBytes, GCCycles: ex.GCCycles,
			})
		}
		if res.Stats != want {
			t.Errorf("Result.Stats = %+v\nAdd of the explain reports' figures = %+v", res.Stats, want)
		}
		if (res.Stats.SATCalls > 0) != tc.sat || res.Stats.MaxSATRuns != tc.maxsatRuns || res.Stats.ClosedFormComponents != tc.closedForm {
			t.Errorf("Result.Stats = %+v: want SAT calls %v, %d MaxSAT runs, %d closed-form components",
				res.Stats, tc.sat, tc.maxsatRuns, tc.closedForm)
		}
	}
}

// TestMultiAggregateDivergentGroups is the regression test for the
// multi-aggregate merge bug: a group present in one aggregate's answer
// set but absent from another's used to be emitted with a zero-valued
// Range (both endpoints null) that rendered like a real interval. The
// merge must instead drop the group and count it in PartialGroups.
// Divergent answer sets cannot be produced by a single SQL statement
// (all aggregates share FROM/WHERE), so the translation is grafted from
// two statements whose WHERE clauses differ.
func TestMultiAggregateDivergentGroups(t *testing.T) {
	sys, err := Open(bank(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	trAll, err := sqlparse.ParseAndTranslate(
		`SELECT CITY, COUNT(*) FROM Acc GROUP BY CITY`, sys.in.Schema())
	if err != nil {
		t.Fatal(err)
	}
	trCheck, err := sqlparse.ParseAndTranslate(
		`SELECT CITY, COUNT(*) FROM Acc WHERE TYPE = 'Check.' GROUP BY CITY`, sys.in.Schema())
	if err != nil {
		t.Fatal(err)
	}
	// Unrestricted: consistent groups {LA, SJ} (A3's city is uncertain,
	// so SF is not certain; A4 pins SJ). Checking accounts only: {LA}.
	combined := &sqlparse.Translation{
		Stmt:      trAll.Stmt,
		Aggs:      []sqlparse.AggTranslation{trAll.Aggs[0], trCheck.Aggs[0]},
		GroupCols: trAll.GroupCols,
	}
	res, err := sys.run(context.Background(), combined)
	if err != nil {
		t.Fatal(err)
	}
	if res.PartialGroups != 1 {
		t.Errorf("PartialGroups = %d, want 1 (SJ has no checking-account answer)", res.PartialGroups)
	}
	if len(res.Rows) != 1 || res.Rows[0].Key[0].AsString() != "LA" {
		t.Fatalf("rows = %+v, want only the LA group", res.Rows)
	}
	for i, rng := range res.Rows[0].Ranges {
		if rng.GLB.IsNull() || rng.LUB.IsNull() {
			t.Errorf("range %d = %s: surviving rows must have no null cells", i, FormatRange(rng))
		}
	}
}

// TestConcurrentMixedQueries hammers one System from many goroutines
// with a mix of scalar, grouped, multi-aggregate, DISTINCT and MIN/MAX
// statements — the core assumption of the query server. Run under
// -race (make race covers this package); answers must also match a
// sequential run exactly.
func TestConcurrentMixedQueries(t *testing.T) {
	sys, err := Open(bank(t), Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`SELECT SUM(Acc.BAL) FROM Acc, CustAcc WHERE Acc.ACCID = CustAcc.ACCID AND CustAcc.CID = 'C2'`,
		`SELECT CITY, COUNT(*) FROM Cust GROUP BY CITY ORDER BY CITY`,
		`SELECT CITY, COUNT(*), MAX(BAL) FROM Acc GROUP BY CITY ORDER BY CITY`,
		`SELECT COUNT(DISTINCT CITY) FROM Cust`,
		`SELECT MIN(BAL) FROM Acc`,
		`SELECT CITY, SUM(BAL) FROM Acc GROUP BY CITY`,
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		res, err := sys.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want[i] = renderRows(res)
	}
	const goroutines = 8
	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds*len(queries))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(queries)
				res, err := sys.Query(queries[i])
				if err != nil {
					errs <- fmt.Errorf("%s: %w", queries[i], err)
					return
				}
				if got := renderRows(res); got != want[i] {
					errs <- fmt.Errorf("%s: concurrent answer drift:\n got %s\nwant %s", queries[i], got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// renderRows flattens a result into a comparable string.
func renderRows(res *Result) string {
	var b strings.Builder
	for _, row := range res.Rows {
		for _, v := range row.Key {
			b.WriteString(v.String())
			b.WriteByte('|')
		}
		for _, r := range row.Ranges {
			b.WriteString(FormatRange(r))
			b.WriteByte('|')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestSumOverflow: a SUM whose range leaves the int64 range fails with
// ErrOverflow on both routes instead of wrapping around, and one that
// ends just inside the range still answers. The rewriting takes the
// non-negative instances under PlannerAuto; negative values fall back
// to the solver.
func TestSumOverflow(t *testing.T) {
	const p62 = int64(1) << 62
	instance := func(t *testing.T, rows [][2]int64) *Instance {
		t.Helper()
		s := NewSchema()
		if err := s.AddRelation(&RelationSchema{
			Name: "R",
			Attrs: []Attribute{
				{Name: "k", Kind: KindInt},
				{Name: "g", Kind: KindString},
				{Name: "v", Kind: KindInt},
			},
			Key: []int{0},
		}); err != nil {
			t.Fatal(err)
		}
		in := NewInstance(s)
		for _, r := range rows {
			in.MustInsert("R", Int(r[0]), Str("a"), Int(r[1]))
		}
		return in
	}
	cases := []struct {
		name string
		rows [][2]int64
		want string // "" means ErrOverflow
	}{
		{"conflicting", [][2]int64{{1, p62}, {1, p62 + 1}, {2, p62}}, ""},
		{"consistent", [][2]int64{{1, p62}, {2, p62}}, ""},
		{"near max", [][2]int64{{1, p62 - 1}, {1, p62}, {2, p62 - 1}},
			fmt.Sprintf("[%d, %d]", math.MaxInt64-1, int64(math.MaxInt64))},
		{"near min", [][2]int64{{1, -p62}, {1, -p62 + 1}, {2, -p62}},
			fmt.Sprintf("[%d, %d]", int64(math.MinInt64), math.MinInt64+1)},
	}
	for _, tc := range cases {
		for _, mode := range []PlannerMode{PlannerForceSAT, PlannerAuto} {
			sys, err := Open(instance(t, tc.rows), Options{Planner: mode})
			if err != nil {
				t.Fatal(err)
			}
			for _, sql := range []string{"SELECT SUM(v) FROM R", "SELECT g, SUM(v) FROM R GROUP BY g"} {
				label := fmt.Sprintf("%s/%v/%s", tc.name, mode, sql)
				res, err := sys.Query(sql)
				if tc.want == "" {
					if !errors.Is(err, ErrOverflow) {
						t.Errorf("%s: err = %v, result %+v; want ErrOverflow", label, err, res)
					}
					continue
				}
				if err != nil {
					t.Errorf("%s: %v", label, err)
					continue
				}
				if got := FormatRange(res.Rows[0].Ranges[0]); len(res.Rows) != 1 || got != tc.want {
					t.Errorf("%s: rows %+v, range %s, want %s", label, res.Rows, got, tc.want)
				}
			}
		}
	}
}
