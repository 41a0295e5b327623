package core

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
	"aggcavsat/internal/obsv"
)

// groupedSumQuery: SUM(Acc.BAL) GROUP BY CITY over the paper's bank
// instance — exercises the grouped path (consistent-group filtering,
// per-group encode/solve) end to end.
func groupedSumQuery() cq.AggQuery {
	return cq.AggQuery{
		Op:      cq.Sum,
		AggVar:  "bal",
		GroupBy: []string{"city"},
		Underlying: cq.Single(cq.CQ{
			Atoms: []cq.Atom{{Rel: "Acc", Args: []cq.Term{cq.V("id"), cq.V("t"), cq.V("city"), cq.V("bal")}}},
		}),
	}
}

// groupedCoupledSumQuery: SELECT Cust.CITY, SUM(Acc.BAL) over every
// customer's accounts, GROUP BY Cust.CITY. Mary's (C2) Cust facts split
// between LA and SF, and her account A3 has two facts: each group's
// witnesses through C2 and A3 couple two violating key-equal groups, so
// both consistent groups (LA [900, 3100], SF [300, 2500]) have one
// width-1 component, solved under noElimination.
func groupedCoupledSumQuery() cq.AggQuery {
	return cq.AggQuery{
		Op:      cq.Sum,
		AggVar:  "bal",
		GroupBy: []string{"city"},
		Underlying: cq.Single(cq.CQ{
			Atoms: []cq.Atom{
				{Rel: "Cust", Args: []cq.Term{cq.V("cid"), cq.V("n"), cq.V("city")}},
				{Rel: "CustAcc", Args: []cq.Term{cq.V("cid"), cq.V("accid")}},
				{Rel: "Acc", Args: []cq.Term{cq.V("accid"), cq.V("t"), cq.V("ac"), cq.V("bal")}},
			},
		}),
	}
}

func TestGroupedSumTraceBalanced(t *testing.T) {
	shared := []string{"query.range_answers", "cq.witness", "core.constraints",
		"core.consistent_groups", "core.groups"}
	solver := []string{"core.encode", "maxsat.solve", "sat.solve"}
	for _, tc := range []struct {
		name string
		q    cq.AggQuery
		// solved: elimination is off and the solver spans appear (else
		// there is none: every component is eliminated).
		solved bool
	}{
		{"closed-form", groupedSumQuery(), false},
		{"coupled", groupedCoupledSumQuery(), false},
		{"coupled-solved", groupedCoupledSumQuery(), true},
	} {
		e := mustEngine(t, bank())
		if tc.solved {
			noElimination(e)
		}
		tr := obsv.NewTracer()
		ctx := obsv.WithTracer(context.Background(), tr)
		rep, err := e.RangeAnswersContext(ctx, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Answers) == 0 {
			t.Fatalf("%s: no answers", tc.name)
		}
		if open := tr.Open(); open != 0 {
			t.Fatalf("%s: unbalanced trace: %d spans still open", tc.name, open)
		}
		spans := tr.Spans()
		byName := map[string][]*obsv.Span{}
		for _, sp := range spans {
			if sp.Duration() < 0 {
				t.Fatalf("%s: span %q has negative duration", tc.name, sp.Name)
			}
			byName[sp.Name] = append(byName[sp.Name], sp)
		}
		for _, want := range shared {
			if len(byName[want]) == 0 {
				t.Errorf("%s: no %q span recorded", tc.name, want)
			}
		}
		for _, name := range solver {
			if got := len(byName[name]) > 0; got != tc.solved {
				t.Errorf("%s: %d %q spans, want solver spans = %v", tc.name, len(byName[name]), name, tc.solved)
			}
		}
		// Nesting by time containment: every other span lies inside the
		// root "query.range_answers" span.
		root := byName["query.range_answers"][0]
		rootEnd := root.Start.Add(root.Duration())
		for _, sp := range spans {
			if sp == root {
				continue
			}
			if sp.Start.Before(root.Start) || sp.Start.Add(sp.Duration()).After(rootEnd) {
				t.Errorf("%s: span %q not contained in the root span", tc.name, sp.Name)
			}
		}
	}
}

// TestGroupedTraceKeepsLaterPhases: a grouped query with more answer
// groups than a request trace may hold spans (cavsatd caps each at 512)
// records one span for its grouped phase, so nothing is dropped and a
// phase started after the query still lands in the trace.
func TestGroupedTraceKeepsLaterPhases(t *testing.T) {
	const nGroups = 700
	s := db.NewSchema()
	s.MustAddRelation(&db.RelationSchema{
		Name:  "R",
		Attrs: []db.Attribute{{Name: "K", Kind: db.KindInt}, {Name: "G", Kind: db.KindInt}, {Name: "V", Kind: db.KindInt}},
		Key:   []int{0},
	})
	in := db.NewInstance(s)
	for g := 0; g < nGroups; g++ {
		// Two facts per key: every group's range needs solving.
		in.MustInsert("R", db.Int(int64(g)), db.Int(int64(g)), db.Int(1))
		in.MustInsert("R", db.Int(int64(g)), db.Int(int64(g)), db.Int(2))
	}
	q := cq.AggQuery{
		Op:      cq.Sum,
		AggVar:  "v",
		GroupBy: []string{"g"},
		Underlying: cq.Single(cq.CQ{
			Atoms: []cq.Atom{{Rel: "R", Args: []cq.Term{cq.V("k"), cq.V("g"), cq.V("v")}}},
		}),
	}
	tr := obsv.NewTracer()
	tr.MaxSpans = 512
	ctx := obsv.WithTracer(context.Background(), tr)
	rep, err := mustEngine(t, in).RangeAnswersContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Answers) != nGroups {
		t.Fatalf("%d answers, want %d", len(rep.Answers), nGroups)
	}
	_, later := obsv.StartSpan(ctx, "later.phase")
	later.End()
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("%d spans dropped from a trace capped at %d", d, tr.MaxSpans)
	}
	var names []string
	for _, sp := range tr.Spans() {
		names = append(names, sp.Name)
		if sp.Name == "core.groups" {
			attrs := map[string]int64{}
			for _, a := range sp.Attrs {
				attrs[a.Key] = a.Int
			}
			if attrs["groups"] != nGroups || attrs["solved"] != nGroups {
				t.Errorf("core.groups attributes %v, want %d groups, %d solved", attrs, nGroups, nGroups)
			}
		}
	}
	for _, want := range []string{"query.range_answers", "core.consistent_groups", "core.groups", "later.phase"} {
		if !slices.Contains(names, want) {
			t.Errorf("no %q span in the trace: %v", want, names)
		}
	}
}

func TestGroupedSumStatsMerged(t *testing.T) {
	// Satellite: groupedRange merges per-group stats into Report.Stats.
	var buf bytes.Buffer
	j := obsv.NewJournal(&buf, 0)
	e, err := New(bank(), Options{Mode: KeysMode, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	// Acc by city: SJ's one component (A3's group) is answered in
	// closed form; SF is not a consistent answer.
	rep, err := e.RangeAnswers(groupedSumQuery())
	if err != nil {
		t.Fatal(err)
	}
	if st := rep.Stats; st.MaxSATRuns != 0 || st.ClosedFormComponents != 1 || st.ConsistentPartSkips != 3 {
		t.Errorf("closed form: MaxSATRuns %d, ClosedFormComponents %d, ConsistentPartSkips %d; want 0, 1, 3",
			st.MaxSATRuns, st.ClosedFormComponents, st.ConsistentPartSkips)
	}
	closedForm := rep.Stats
	// Without elimination both groups of the coupled query solve one
	// component each.
	rep, err = noElimination(e).RangeAnswers(groupedCoupledSumQuery())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"[LA]=[900,3100]", "[SF]=[300,2500]"}
	if len(rep.Answers) != len(want) {
		t.Fatalf("answers = %+v, want %v", rep.Answers, want)
	}
	for i, a := range rep.Answers {
		if got := fmt.Sprintf("%v=[%v,%v]", a.Key, a.GLB, a.LUB); got != want[i] {
			t.Errorf("answer %d = %s, want %s", i, got, want[i])
		}
	}
	st := rep.Stats
	if st.EncodeTime <= 0 {
		t.Errorf("EncodeTime = %v, want > 0", st.EncodeTime)
	}
	if st.SolveTime <= 0 {
		t.Errorf("SolveTime = %v, want > 0", st.SolveTime)
	}
	if st.WitnessTime <= 0 {
		t.Errorf("WitnessTime = %v, want > 0", st.WitnessTime)
	}
	if st.SATCalls == 0 {
		t.Error("SATCalls = 0, want > 0 (group filtering + MaxSAT)")
	}
	if st.MaxSATRuns != 4 || st.ClosedFormComponents != 0 {
		t.Errorf("MaxSATRuns = %d, ClosedFormComponents = %d, want 4 (glb+lub of two uncertain groups) and 0",
			st.MaxSATRuns, st.ClosedFormComponents)
	}
	// The typed record is the source of truth: the journal lines are
	// projected from the same Stats, and count the grouped path's
	// groups.
	j.Close()
	lines, err := obsv.ReadJournal(&buf)
	if err != nil || len(lines) != 2 {
		t.Fatalf("journal: %d lines, err %v", len(lines), err)
	}
	checkLineStats(t, "grouped sum", lines[0], closedForm)
	checkLineStats(t, "grouped coupled sum", lines[1], st)
	for _, l := range lines {
		if l.Groups == 0 {
			t.Error("groups not recorded")
		}
	}
}

func TestSessionMetricsPrometheus(t *testing.T) {
	reg := obsv.NewRegistry()
	in := bank()
	e, err := New(in, Options{Mode: KeysMode, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RangeAnswers(groupedSumQuery()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RangeAnswers(paperSumQuery()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	// Every sample line must be "name[{bucket}] value" with a numeric
	// value; the vocabulary metrics must be present.
	seen := map[string]bool{}
	for ln, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("line %d: %q is not 'name value'", ln+1, line)
		}
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			t.Fatalf("line %d: value %q: %v", ln+1, fields[1], err)
		}
		name := fields[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		seen[name] = true
	}
	for _, want := range []string{
		obsv.MetricSATCalls, obsv.MetricMaxSATRuns, obsv.MetricCNFVarsMax,
		obsv.MetricPhaseSecondsPrefix + "encode_sum", obsv.MetricPhaseSecondsPrefix + "solve_sum",
		obsv.MetricPhaseSecondsPrefix + "witness_sum", obsv.MetricEngineCallSeconds + "_count",
	} {
		if !seen[want] {
			t.Errorf("metric %q missing from exposition", want)
		}
	}
	// Each fact is published once: no per-phase nanosecond counter
	// beside the phase histograms, no call counter beside the call
	// histogram, no last-call gauge.
	for _, gone := range []string{
		"aggcavsat_calls_total", "aggcavsat_witness_ns_total", "aggcavsat_encode_ns_total",
		"aggcavsat_solve_ns_total", "aggcavsat_rewrite_ns_total", "aggcavsat_constraint_ns",
		"aggcavsat_heap_bytes",
	} {
		if seen[gone] {
			t.Errorf("deleted metric %q is published", gone)
		}
	}
}
