package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"aggcavsat/internal/constraints"
	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
	"aggcavsat/internal/obsv"
	"aggcavsat/internal/planner"
)

// checkLineStats asserts that a journal line's counters and phase
// milliseconds are exactly the call's Stats.
func checkLineStats(t *testing.T, label string, line obsv.JournalEntry, st Stats) {
	t.Helper()
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"witness_ms", line.WitnessMS, ms(st.WitnessTime)},
		{"constraint_ms", line.ConstraintMS, ms(st.ConstraintTime)},
		{"encode_ms", line.EncodeMS, ms(st.EncodeTime)},
		{"solve_ms", line.SolveMS, ms(st.SolveTime)},
		{"rewrite_ms", line.RewriteMS, ms(st.RewriteTime)},
		{"sat_calls", float64(line.SATCalls), float64(st.SATCalls)},
		{"maxsat_runs", float64(line.MaxSATRuns), float64(st.MaxSATRuns)},
		{"cnf_vars", float64(line.Vars), float64(st.Vars)},
		{"cnf_clauses", float64(line.Clauses), float64(st.Clauses)},
		{"cnf_vars_max", float64(line.MaxVars), float64(st.MaxVars)},
		{"cnf_clauses_max", float64(line.MaxClauses), float64(st.MaxClauses)},
		{"consistent_skips", float64(line.ConsistentSkips), float64(st.ConsistentPartSkips)},
		{"closed_form_components", float64(line.ClosedForm), float64(st.ClosedFormComponents)},
		{"folded_assignments", float64(line.Folded), float64(st.FoldedAssignments)},
		{"witness_alloc_bytes", float64(line.WitnessAllocBytes), float64(st.WitnessAllocBytes)},
		{"encode_alloc_bytes", float64(line.EncodeAllocBytes), float64(st.EncodeAllocBytes)},
		{"solve_alloc_bytes", float64(line.SolveAllocBytes), float64(st.SolveAllocBytes)},
		{"heap_bytes", float64(line.HeapBytes), float64(st.HeapBytes)},
		{"gc_cycles", float64(line.GCCycles), float64(st.GCCycles)},
	} {
		if c.got != c.want {
			t.Errorf("%s: journal %s = %v, Stats has %v", label, c.name, c.got, c.want)
		}
	}
}

// phaseSeconds returns the _sum of each phase histogram of a registry.
func phaseSeconds(reg *obsv.Registry) map[string]float64 {
	snap := reg.Snapshot()
	sums := map[string]float64{}
	for _, p := range []string{"witness", "constraint", "encode", "solve", "rewrite"} {
		sums[p] = snap.Histograms[obsv.MetricPhaseSecondsPrefix+p].Sum
	}
	return sums
}

// callCount totals the observations of aggcavsat_call_seconds whose
// (tenant, route, outcome) values pass keep (nil keeps all): the
// engine call count.
func callCount(reg *obsv.Registry, keep func(values []string) bool) int64 {
	var n int64
	for _, s := range reg.LabeledHistogram(obsv.MetricEngineCallSeconds, obsv.RequestLabels, nil, 0).Series() {
		if keep == nil || keep(s.Values) {
			n += s.Count
		}
	}
	return n
}

// registryStats reads a call's Stats back out of a session registry that
// saw only that call (so every value is the call's delta). A phase's
// time is its histogram's _sum, rounded back to nanoseconds; the live
// heap is a per-call fact no metric carries, so HeapBytes reads 0.
func registryStats(reg *obsv.Registry) Stats {
	c := func(name string) int64 { return reg.Counter(name).Value() }
	g := func(name string) int64 { return reg.Gauge(name).Value() }
	sums := phaseSeconds(reg)
	d := func(p string) time.Duration { return time.Duration(math.Round(sums[p] * 1e9)) }
	return Stats{
		WitnessTime:          d("witness"),
		ConstraintTime:       d("constraint"),
		EncodeTime:           d("encode"),
		SolveTime:            d("solve"),
		RewriteTime:          d("rewrite"),
		SATCalls:             c(obsv.MetricSATCalls),
		MaxSATRuns:           int(c(obsv.MetricMaxSATRuns)),
		Vars:                 int(c(obsv.MetricCNFVars)),
		Clauses:              int(c(obsv.MetricCNFClauses)),
		MaxVars:              int(g(obsv.MetricCNFVarsMax)),
		MaxClauses:           int(g(obsv.MetricCNFClausesMax)),
		ConsistentPartSkips:  int(c(obsv.MetricConsistentSkips)),
		ClosedFormComponents: int(c(obsv.MetricClosedForm)),
		FoldedAssignments:    c(obsv.MetricFolded),
		WitnessAllocBytes:    c(obsv.MetricPhaseAllocPrefix + "witness"),
		EncodeAllocBytes:     c(obsv.MetricPhaseAllocPrefix + "encode"),
		SolveAllocBytes:      c(obsv.MetricPhaseAllocPrefix + "solve"),
		GCCycles:             c(obsv.MetricGCCycles),
	}
}

// metricNames lists the registry's metric families, label sets stripped.
func metricNames(reg *obsv.Registry) string {
	snap := reg.Snapshot()
	set := map[string]bool{}
	add := func(name string) {
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		set[name] = true
	}
	for _, m := range []map[string]int64{snap.Counters, snap.Gauges} {
		for name := range m {
			add(name)
		}
	}
	for name := range snap.Histograms {
		add(name)
	}
	var names []string
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}

// TestOneRecordReconciles runs one engine call per case — keys and DC
// mode, rewrite and SAT route, success and timeout, plus a
// ConsistentAnswers call — with every projection switched on, and checks
// that Report.Stats, the explain report (the call's wide event), the
// journal line and the session
// registry all carry the same figures (the
// folded-assignment count included, nonzero on the folding calls), and
// that every exit path publishes the same metric names. In the registry
// a phase's time is the exact _sum of its aggcavsat_phase_seconds_
// histogram and the call is one aggcavsat_call_seconds observation. The
// keys-mode SAT cases cover calls eliminated at width 0 and 1 and one
// solved.
func TestOneRecordReconciles(t *testing.T) {
	r := rng(77)
	rnd := randomInstance(&r)
	dcs, err := constraints.SchemaKeyDCs(rnd.Schema())
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	u := cq.Single(cq.CQ{Head: []string{"g"}, Atoms: []cq.Atom{
		{Rel: "R", Args: []cq.Term{cq.V("k"), cq.V("g"), cq.V("v")}},
	}})

	cases := []struct {
		name    string
		in      *db.Instance
		opts    Options
		ctx     context.Context
		q       cq.AggQuery
		cons    bool // ConsistentAnswers(u) instead of RangeAnswers(q)
		route   string
		anomaly string
		folds   bool // the call folds some all-safe assignment
		// closedForm is the call's exact count of components answered
		// by group elimination; solved switches elimination off.
		closedForm int
		solved     bool
	}{
		{name: "keys/sat", in: bank(), q: groupedSumQuery(), route: "sat", anomaly: "", folds: true, closedForm: 1},
		{name: "keys/sat-coupled", in: bank(), q: groupedCoupledSumQuery(), route: "sat", anomaly: "", folds: true, closedForm: 2},
		{name: "keys/sat-solved", in: bank(), q: groupedCoupledSumQuery(), route: "sat", anomaly: "", folds: true, solved: true},
		{name: "keys/rewrite", in: rnd, opts: Options{Planner: planner.ModeRewrite},
			q: joinQuery(cq.CountStar, true), route: "rewrite", anomaly: ""},
		{name: "keys/auto", in: rnd, opts: Options{Planner: planner.ModeAuto},
			q: joinQuery(cq.CountStar, true), route: "sat", anomaly: "", folds: true, closedForm: 1},
		{name: "dc/sat", in: rnd, opts: Options{Mode: DCMode, DCs: dcs, Planner: planner.ModeAuto},
			q: joinQuery(cq.Sum, true), route: "sat", anomaly: "", folds: true},
		{name: "keys/timeout", in: bank(), ctx: cancelled, q: paperSumQuery(), route: "sat", anomaly: "timeout"},
		{name: "consistent", in: rnd, cons: true, anomaly: "", folds: true},
	}
	published := map[string]string{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			reg := obsv.NewRegistry()
			opts := tc.opts
			opts.Explain = true
			opts.Metrics = reg
			opts.Journal = obsv.NewJournal(&buf, 0)
			e, err := New(tc.in, opts)
			if err != nil {
				t.Fatal(err)
			}
			if tc.solved {
				noElimination(e)
			}
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			var st Stats
			switch {
			case tc.cons:
				_, st, err = e.ConsistentAnswersContext(ctx, u)
			default:
				var rep *Report
				rep, err = e.RangeAnswersContext(ctx, tc.q)
				if err == nil {
					st = rep.Stats
					if rep.Explain == nil {
						t.Fatal("no explain report under Options.Explain")
					}
					checkLineStats(t, tc.name+" explain", *rep.Explain, st)
					if rep.Route != tc.route {
						t.Errorf("route = %q, want %q", rep.Route, tc.route)
					}
				}
			}
			published[tc.name] = metricNames(reg)
			if tc.anomaly == "timeout" {
				if !errors.Is(err, ErrTimeout) {
					t.Fatalf("err = %v, want ErrTimeout", err)
				}
				st = registryStats(reg) // no Report on an error exit
			} else if err != nil {
				t.Fatal(err)
			}
			if st.WitnessTime+st.RewriteTime <= 0 {
				t.Errorf("Stats %+v: no witness or rewrite time (every case runs one)", st)
			}
			if (st.FoldedAssignments > 0) != tc.folds {
				t.Errorf("folded assignments = %d, want folding %v", st.FoldedAssignments, tc.folds)
			}
			if st.ClosedFormComponents != tc.closedForm {
				t.Errorf("closed-form components = %d, want %d", st.ClosedFormComponents, tc.closedForm)
			}

			want := st
			want.HeapBytes = 0
			if got := registryStats(reg); got != want {
				t.Errorf("session registry %+v, Stats %+v", got, want)
			}
			for p, d := range map[string]time.Duration{
				"witness": st.WitnessTime, "constraint": st.ConstraintTime, "encode": st.EncodeTime,
				"solve": st.SolveTime, "rewrite": st.RewriteTime,
			} {
				if got := phaseSeconds(reg)[p]; got != d.Seconds() {
					t.Errorf("%s phase _sum = %v s, Stats has %v s", p, got, d.Seconds())
				}
			}
			// One call; a routed RangeAnswers call, ConsistentAnswers
			// routes none.
			if n := callCount(reg, nil); n != 1 {
				t.Errorf("call count = %d, want 1", n)
			}
			routed := callCount(reg, func(values []string) bool {
				return values[1] == "rewrite" || values[1] == "sat"
			})
			wantRouted := int64(1)
			if tc.cons {
				wantRouted = 0
			}
			if routed != wantRouted {
				t.Errorf("calls with a route label sum to %d, want %d", routed, wantRouted)
			}

			opts.Journal.Close()
			lines, err := obsv.ReadJournal(&buf)
			if err != nil || len(lines) != 1 {
				t.Fatalf("journal: %d lines, err %v", len(lines), err)
			}
			line := lines[0]
			if tc.anomaly == "timeout" {
				st.HeapBytes = line.HeapBytes // the journal line is its only copy
			}
			checkLineStats(t, tc.name, line, st)
			if line.Route != tc.route || line.Anomaly != tc.anomaly {
				t.Errorf("line route/anomaly = %q/%q, want %q/%q", line.Route, line.Anomaly, tc.route, tc.anomaly)
			}
		})
	}
	for name, names := range published {
		if want := published[cases[0].name]; names != want {
			t.Errorf("%s publishes %s\n%s publishes %s", name, names, cases[0].name, want)
		}
	}
}

// TestConstraintTimeOnlyWhenBuilt: the constraint phase is reported by
// the call that built the context and by no later call. A call that
// reuses it reports no constraint time in its Stats or its journal line
// and adds no observation to the constraint phase histogram; its explain
// report marks the cache hit and carries the cached build time.
func TestConstraintTimeOnlyWhenBuilt(t *testing.T) {
	var buf bytes.Buffer
	reg := obsv.NewRegistry()
	j := obsv.NewJournal(&buf, 0)
	e, err := New(bank(), Options{Explain: true, Metrics: reg, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	built, err := e.RangeAnswers(groupedSumQuery())
	if err != nil {
		t.Fatal(err)
	}
	reused, err := e.RangeAnswers(groupedCoupledSumQuery())
	if err != nil {
		t.Fatal(err)
	}
	if built.Stats.ConstraintTime <= 0 || built.Explain.ConstraintCached || built.Explain.ConstraintBuildNS != 0 {
		t.Errorf("building call: constraint time %v, cached %v, cached build %d ns; want > 0, false, 0",
			built.Stats.ConstraintTime, built.Explain.ConstraintCached, built.Explain.ConstraintBuildNS)
	}
	if reused.Stats.ConstraintTime != 0 || !reused.Explain.ConstraintCached ||
		reused.Explain.ConstraintBuildNS != int64(built.Stats.ConstraintTime) {
		t.Errorf("reusing call: constraint time %v, cached %v, cached build %d ns; want 0, true, %d",
			reused.Stats.ConstraintTime, reused.Explain.ConstraintCached, reused.Explain.ConstraintBuildNS,
			int64(built.Stats.ConstraintTime))
	}
	if h := reg.Snapshot().Histograms[obsv.MetricPhaseSecondsPrefix+"constraint"]; h.Count != 1 ||
		h.Sum != built.Stats.ConstraintTime.Seconds() {
		t.Errorf("constraint phase histogram %d observations, _sum %v s; want 1, the build's %v s",
			h.Count, h.Sum, built.Stats.ConstraintTime.Seconds())
	}
	var table bytes.Buffer
	if err := reused.Explain.WriteTable(&table); err != nil {
		t.Fatal(err)
	}
	if want := "hit (built in " + built.Stats.ConstraintTime.String() + ")"; !strings.Contains(table.String(), want) {
		t.Errorf("explain table lacks %q:\n%s", want, table.String())
	}
	j.Close()
	lines, err := obsv.ReadJournal(&buf)
	if err != nil || len(lines) != 2 {
		t.Fatalf("journal: %d lines, err %v", len(lines), err)
	}
	checkLineStats(t, "building call", lines[0], built.Stats)
	checkLineStats(t, "reusing call", lines[1], reused.Stats)

	// PossibleAnswers follows the same rule.
	if _, st, err := e.PossibleAnswers(cq.Single(cq.CQ{Head: []string{"c"}, Atoms: []cq.Atom{
		{Rel: "Acc", Args: []cq.Term{cq.V("id"), cq.V("t"), cq.V("c"), cq.V("b")}},
	}})); err != nil || st.ConstraintTime != 0 {
		t.Errorf("PossibleAnswers on a built context: constraint time %v, err %v; want 0", st.ConstraintTime, err)
	}
}
