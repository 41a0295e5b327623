package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"aggcavsat/internal/cq"
	"aggcavsat/internal/planner"
)

// TestExplainReconcilesWithStats is the `-explain` vs `-stats` contract:
// both views of a solve are projections of the one per-call record, so
// the explain report's Stats must equal the Report's Stats field for
// field, for a solved component and for eliminated ones.
func TestExplainReconcilesWithStats(t *testing.T) {
	e, err := New(bank(), Options{Mode: KeysMode, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := noElimination(e).RangeAnswers(coupledSumQuery())
	if err != nil {
		t.Fatal(err)
	}
	ex := rep.Explain
	if ex == nil {
		t.Fatal("Explain missing despite Options.Explain")
	}
	if !reflect.DeepEqual(ex.Stats, rep.Stats) {
		t.Errorf("explain stats diverge from report stats:\nexplain: %+v\nreport:  %+v", ex.Stats, rep.Stats)
	}
	if ex.Op != "SUM" || ex.Mode != "keys" || ex.Algorithm != "maxhs" {
		t.Errorf("explain identity = op %q mode %q alg %q", ex.Op, ex.Mode, ex.Algorithm)
	}
	if len(ex.Components) == 0 {
		t.Fatal("no component breakdown recorded")
	}
	// The paper's SUM solve runs two WPMaxSAT directions (glb and lub):
	// they must show up as solver passes somewhere in the breakdown.
	dirs := map[string]bool{}
	var satCalls int64
	for _, ce := range ex.Components {
		for _, d := range ce.Directions {
			dirs[d.Direction] = true
			satCalls += d.SATCalls
			// Default budgets: MaxHS answers without its RC2 fallback.
			if d.Algorithm != "maxhs" {
				t.Errorf("component %d %s pass answered by %q, want maxhs", ce.Index, d.Direction, d.Algorithm)
			}
		}
	}
	if !dirs["glb"] || !dirs["lub"] {
		t.Errorf("directions seen = %v, want glb and lub", dirs)
	}
	if satCalls == 0 || satCalls > rep.Stats.SATCalls {
		t.Errorf("component sat calls = %d, report total = %d", satCalls, rep.Stats.SATCalls)
	}

	// With elimination on, the running example's component (width 0,
	// A3's two facts) and Example IV.2's (width 1, Mary's and A3's
	// groups) are each listed with their counted size, their shape and
	// one closed-form pass, no SAT call.
	e.elimBudget = elimTableBudget
	for _, tc := range []struct {
		q                    cq.AggQuery
		facts, units         int
		vars, clauses        int
		elimWidth, elimTable int
	}{
		{paperSumQuery(), 3, 2, 4, 8, 0, 2},
		{coupledSumQuery(), 7, 6, 9, 21, 1, 4},
	} {
		rep, err = e.RangeAnswers(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		ex = rep.Explain
		if !reflect.DeepEqual(ex.Stats, rep.Stats) {
			t.Errorf("eliminated: explain stats diverge from report stats:\nexplain: %+v\nreport:  %+v", ex.Stats, rep.Stats)
		}
		want := []ComponentExplain{{Facts: tc.facts, Witnesses: tc.units, Vars: tc.vars, Clauses: tc.clauses, ClosedForm: true,
			ElimWidth: tc.elimWidth, ElimTable: tc.elimTable,
			Directions: []DirectionExplain{{Direction: "closed-form", Algorithm: "elimination"}}}}
		if !reflect.DeepEqual(ex.Components, want) {
			t.Errorf("eliminated: components = %+v, want %+v", ex.Components, want)
		}
		if ex.ClosedFormComponents != 1 ||
			ex.Stats.Vars != tc.vars || ex.Stats.Clauses != tc.clauses || ex.Stats.SATCalls != 0 {
			t.Errorf("eliminated: %d closed-form components, stats %+v", ex.ClosedFormComponents, ex.Stats)
		}
	}
}

// TestExplainPerCall checks that explain reports do not leak across
// calls: each solve gets its own record, and a grouped query breaks
// into at least as many solve units as answer groups.
func TestExplainPerCall(t *testing.T) {
	e, err := New(bank(), Options{Mode: KeysMode, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	q := cq.AggQuery{
		Op:      cq.CountStar,
		GroupBy: []string{"city"},
		Underlying: cq.Single(cq.CQ{
			Atoms: []cq.Atom{{Rel: "Cust", Args: []cq.Term{cq.V("cid"), cq.V("n"), cq.V("city")}}},
		}),
	}
	rep1, err := e.RangeAnswers(q)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := e.RangeAnswers(q)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Explain == rep2.Explain {
		t.Fatal("explain report shared between calls")
	}
	if !reflect.DeepEqual(rep2.Explain.Stats, rep2.Stats) {
		t.Error("second call's explain stats diverge from its report stats")
	}
	units := 0
	for _, ce := range rep2.Explain.Components {
		units += ce.Witnesses
	}
	if units < len(rep2.Answers) {
		t.Errorf("component units = %d < %d answer groups", units, len(rep2.Answers))
	}
}

func TestExplainNilWhenDisabled(t *testing.T) {
	e := mustEngine(t, bank())
	rep, err := e.RangeAnswers(paperSumQuery())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Explain != nil {
		t.Error("Explain present without Options.Explain")
	}
}

// TestExplainWriteTableAndJSON renders the report of an auto-mode call
// as a table and as JSON; both name the solver route with auto's own
// reason.
func TestExplainWriteTableAndJSON(t *testing.T) {
	e, err := New(bank(), Options{Mode: KeysMode, Planner: planner.ModeAuto, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		q      cq.AggQuery
		budget int
		want   []string
	}{
		{coupledSumQuery(), 0, []string{"glb", "lub"}},
		{paperSumQuery(), elimTableBudget, []string{"closed-form components", "closed-form", "elimination (width 0, table 2)"}},
		{coupledSumQuery(), elimTableBudget, []string{"closed-form components", "closed-form", "elimination (width 1, table 4)"}},
	} {
		e.elimBudget = tc.budget
		rep, err := e.RangeAnswers(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.Explain.WriteTable(&buf); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		route := "sat (" + planner.ReasonAuto + ")"
		for _, want := range append([]string{"mode", "keys", route, "phase", "witness", "solve", "component"}, tc.want...) {
			if !strings.Contains(out, want) {
				t.Errorf("table missing %q:\n%s", want, out)
			}
		}
		b, err := json.Marshal(rep.Explain)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{`"mode":"keys"`, `"components"`, `"stats"`, `"route":"sat"`,
			`"route_reason":"` + planner.ReasonAuto + `"`, `"closed_form_components"`} {
			if !strings.Contains(string(b), key) {
				t.Errorf("JSON missing %s:\n%s", key, b)
			}
		}
	}
}

// TestExplainChecksByElimination: the consistency filter and the
// MIN/MAX probes answered by group elimination are listed as one entry
// each, pass "consistency" or "probe" by "elimination", with the
// facts, units and CNF size the SAT checks report when a budget of 0
// declines everything to them.
func TestExplainChecksByElimination(t *testing.T) {
	e, err := New(bank(), Options{Mode: KeysMode, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	// Per city: LA and SJ have a safe account, SF's only account A3
	// conflicts, so SF is the one candidate the filter checks.
	grouped := cq.AggQuery{
		Op:      cq.CountStar,
		GroupBy: []string{"city"},
		Underlying: cq.Single(cq.CQ{
			Atoms: []cq.Atom{{Rel: "Acc", Args: []cq.Term{cq.V("id"), cq.V("t"), cq.V("city"), cq.V("bal")}}},
		}),
	}
	maxQ := paperSumQuery()
	maxQ.Op = cq.Max
	for _, tc := range []struct {
		q    cq.AggQuery
		pass string
		want string
	}{
		{grouped, "consistency", "elimination (width 0, table 2)"},
		{maxQ, "probe", "elimination (width 0, table 2)"},
	} {
		entry := func(budget int) (ComponentExplain, *Explain) {
			t.Helper()
			e.elimBudget = budget
			rep, err := e.RangeAnswers(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			for _, ce := range rep.Explain.Components {
				if ce.Directions[0].Direction == tc.pass {
					return ce, rep.Explain
				}
			}
			t.Fatalf("budget %d: no %s entry in %+v", budget, tc.pass, rep.Explain.Components)
			return ComponentExplain{}, nil
		}
		sat, _ := entry(0)
		got, ex := entry(elimTableBudget)
		if !got.ClosedForm || len(got.Directions) != 1 || got.Directions[0] != (DirectionExplain{Direction: tc.pass, Algorithm: "elimination"}) {
			t.Errorf("%s: entry %+v, want one elimination pass", tc.pass, got)
		}
		if got.Facts != sat.Facts || got.Witnesses != sat.Witnesses || got.Vars != sat.Vars || got.Clauses != sat.Clauses {
			t.Errorf("%s: elimination entry %+v, SAT entry %+v: facts, units and CNF size differ", tc.pass, got, sat)
		}
		if ex.Stats.SATCalls != 0 {
			t.Errorf("%s: %d SAT calls", tc.pass, ex.Stats.SATCalls)
		}
		var buf bytes.Buffer
		if err := ex.WriteTable(&buf); err != nil {
			t.Fatal(err)
		}
		if out := buf.String(); !strings.Contains(out, tc.pass) || !strings.Contains(out, tc.want) {
			t.Errorf("%s: table missing %q:\n%s", tc.pass, tc.want, out)
		}
	}
}
