package core

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"aggcavsat/internal/constraints"
	"aggcavsat/internal/cq"
	"aggcavsat/internal/obsv"
	"aggcavsat/internal/planner"
)

// TestExplainIsTheJournalLine: the explain report is the call's wide
// event. Over scalar and grouped calls in keys and DC mode, with both
// Options.Explain and a journal installed, each Report.Explain decodes
// to exactly the line the journal wrote, and its counters and phase
// milliseconds are the Report's Stats.
func TestExplainIsTheJournalLine(t *testing.T) {
	dcs, err := constraints.SchemaKeyDCs(bank().Schema())
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"keys", Options{Mode: KeysMode}},
		{"dc", Options{Mode: DCMode, DCs: dcs}},
	} {
		var buf bytes.Buffer
		opts := mode.opts
		opts.Explain = true
		opts.Journal = obsv.NewJournal(&buf, 0)
		e, err := New(bank(), opts)
		if err != nil {
			t.Fatal(err)
		}
		queries := []cq.AggQuery{paperSumQuery(), coupledSumQuery(), groupedSumQuery(), groupedCoupledSumQuery()}
		var reps []*Report
		for _, q := range queries {
			rep, err := e.RangeAnswers(q)
			if err != nil {
				t.Fatal(err)
			}
			reps = append(reps, rep)
		}
		if err := opts.Journal.Close(); err != nil {
			t.Fatal(err)
		}
		lines, err := obsv.ReadJournal(&buf)
		if err != nil || len(lines) != len(queries) {
			t.Fatalf("%s: journal has %d lines for %d calls, err %v", mode.name, len(lines), len(queries), err)
		}
		for i, rep := range reps {
			label := mode.name + "/" + queries[i].String()
			b, err := json.Marshal(rep.Explain)
			if err != nil {
				t.Fatal(err)
			}
			var got obsv.JournalEntry
			if err := json.Unmarshal(b, &got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, lines[i]) {
				t.Errorf("%s: explain report\n%+v\njournal line\n%+v", label, got, lines[i])
			}
			checkLineStats(t, label, got, rep.Stats)
			if got.Options.Mode != mode.name || got.Algebra != queries[i].BuildHead().String() || len(got.Components) == 0 {
				t.Errorf("%s: mode %q, algebra %q, %d components", label, got.Options.Mode, got.Algebra, len(got.Components))
			}
		}
	}
}

// TestExplainReconcilesWithStats is the `-explain` vs `-stats` contract:
// both views of a solve are projections of the one per-call record, so
// the explain report's counters and phase milliseconds must be the
// Report's Stats, for a solved component and for eliminated ones.
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
	checkLineStats(t, "solved", *ex, rep.Stats)
	if ex.Op != "range_answers/SUM" || ex.Options.Mode != "keys" || ex.Options.Algorithm != "maxhs" {
		t.Errorf("explain identity = op %q mode %q alg %q", ex.Op, ex.Options.Mode, ex.Options.Algorithm)
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
		checkLineStats(t, "eliminated", *ex, rep.Stats)
		want := []obsv.ComponentExplain{{Facts: tc.facts, Witnesses: tc.units, Vars: tc.vars, Clauses: tc.clauses, ClosedForm: true,
			ElimWidth: tc.elimWidth, ElimTable: tc.elimTable,
			Directions: []obsv.DirectionExplain{{Direction: "closed-form", Algorithm: "elimination"}}}}
		if !reflect.DeepEqual(ex.Components, want) {
			t.Errorf("eliminated: components = %+v, want %+v", ex.Components, want)
		}
		if ex.ClosedForm != 1 || ex.Vars != tc.vars || ex.Clauses != tc.clauses || ex.SATCalls != 0 {
			t.Errorf("eliminated: %d closed-form components, cnf %d/%d, %d SAT calls",
				ex.ClosedForm, ex.Vars, ex.Clauses, ex.SATCalls)
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
	checkLineStats(t, "second call", *rep2.Explain, rep2.Stats)
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
// — the call's journal line — as a table and as JSON; both name the
// solver route with auto's own reason. The table has every row of the
// explain report: the trace id of a traced call, mode, route, solver,
// parallelism, the constraint cache, the DC violation route, the
// consistent-part skips, closed-form components and folded
// assignments, the phase times and allocations, and one row per
// component pass with its elimination width and table.
func TestExplainWriteTableAndJSON(t *testing.T) {
	dcs, err := constraints.SchemaKeyDCs(bank().Schema())
	if err != nil {
		t.Fatal(err)
	}
	keys, err := New(bank(), Options{Mode: KeysMode, Planner: planner.ModeAuto, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	dc, err := New(bank(), Options{Mode: DCMode, DCs: dcs, Planner: planner.ModeAuto, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	tc0 := obsv.NewTraceContext()
	traced := obsv.WithTraceContext(context.Background(), tc0)
	common := []string{"phase", "time", "alloc", "witness", "constraint", "encode", "solve", "total",
		"component", "solver", "maxhs", "parallelism", "constraint cache", "route", "sat (" + planner.ReasonAuto + ")"}
	for _, tc := range []struct {
		e      *Engine
		ctx    context.Context
		q      cq.AggQuery
		budget int
		want   []string
	}{
		{keys, traced, coupledSumQuery(), 0, []string{"mode", "keys", "glb", "lub", "trace", tc0.TraceID.String()}},
		{keys, context.Background(), paperSumQuery(), elimTableBudget, []string{"closed-form components", "closed-form", "elimination (width 0, table 2)"}},
		{keys, context.Background(), coupledSumQuery(), elimTableBudget, []string{"closed-form components", "closed-form", "elimination (width 1, table 4)"}},
		{keys, context.Background(), groupedSumQuery(), elimTableBudget, []string{"folded assignments", "consistent-part skips", "hit (built in"}},
		{dc, context.Background(), groupedSumQuery(), 0, []string{"mode", "dc", "violation route", "FD partition(s)", "generic DC(s)"}},
	} {
		tc.e.elimBudget = tc.budget
		rep, err := tc.e.RangeAnswersContext(tc.ctx, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.Explain.WriteTable(&buf); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		for _, want := range append(common, tc.want...) {
			if !strings.Contains(out, want) {
				t.Errorf("table missing %q:\n%s", want, out)
			}
		}
		b, err := json.Marshal(rep.Explain)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{`"mode":"`, `"components"`, `"sat_calls"`, `"route":"sat"`,
			`"route_reason":"` + planner.ReasonAuto + `"`, `"algebra"`} {
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
		entry := func(budget int) (obsv.ComponentExplain, *obsv.JournalEntry) {
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
			return obsv.ComponentExplain{}, nil
		}
		sat, _ := entry(0)
		got, ex := entry(elimTableBudget)
		if !got.ClosedForm || len(got.Directions) != 1 || got.Directions[0] != (obsv.DirectionExplain{Direction: tc.pass, Algorithm: "elimination"}) {
			t.Errorf("%s: entry %+v, want one elimination pass", tc.pass, got)
		}
		if got.Facts != sat.Facts || got.Witnesses != sat.Witnesses || got.Vars != sat.Vars || got.Clauses != sat.Clauses {
			t.Errorf("%s: elimination entry %+v, SAT entry %+v: facts, units and CNF size differ", tc.pass, got, sat)
		}
		if ex.SATCalls != 0 {
			t.Errorf("%s: %d SAT calls", tc.pass, ex.SATCalls)
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
