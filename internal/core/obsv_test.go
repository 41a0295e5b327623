package core

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"

	"aggcavsat/internal/cq"
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

func TestGroupedSumTraceBalanced(t *testing.T) {
	e := mustEngine(t, bank())
	tr := obsv.NewTracer()
	ctx := obsv.WithTracer(context.Background(), tr)
	rep, err := e.RangeAnswersContext(ctx, groupedSumQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Answers) == 0 {
		t.Fatal("no answers")
	}
	if open := tr.Open(); open != 0 {
		t.Fatalf("unbalanced trace: %d spans still open", open)
	}
	spans := tr.Spans()
	byName := map[string][]*obsv.Span{}
	for _, sp := range spans {
		if sp.Duration() < 0 {
			t.Fatalf("span %q has negative duration", sp.Name)
		}
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	for _, want := range []string{
		"query.range_answers", "cq.witness", "core.constraints",
		"core.consistent_groups", "core.group", "core.encode",
		"maxsat.solve", "sat.solve",
	} {
		if len(byName[want]) == 0 {
			t.Errorf("no %q span recorded", want)
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
			t.Errorf("span %q not contained in the root span", sp.Name)
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
	rep, err := e.RangeAnswers(groupedSumQuery())
	if err != nil {
		t.Fatal(err)
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
	if st.MaxSATRuns < 2 {
		t.Errorf("MaxSATRuns = %d, want >= 2 (glb+lub of an uncertain group)", st.MaxSATRuns)
	}
	// The typed record is the source of truth: the journal line is
	// projected from the same Stats, and counts the grouped path's
	// groups.
	j.Close()
	lines, err := obsv.ReadJournal(&buf)
	if err != nil || len(lines) != 1 {
		t.Fatalf("journal: %d lines, err %v", len(lines), err)
	}
	checkLineStats(t, "grouped sum", lines[0], st)
	if lines[0].Groups == 0 {
		t.Error("groups not recorded")
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
		obsv.MetricSATCalls, obsv.MetricMaxSATRuns, obsv.MetricEncodeNS,
		obsv.MetricSolveNS, obsv.MetricWitnessNS, obsv.MetricCNFVarsMax,
	} {
		if !seen[want] {
			t.Errorf("metric %q missing from exposition", want)
		}
	}
}
