package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"aggcavsat/internal/cq"
	"aggcavsat/internal/obsv"
	"aggcavsat/internal/planner"
)

// TestJournalOneLinePerCall: every engine call — grouped or scalar —
// appends exactly one wide-event line, stamped with the call's identity
// and phase totals.
func TestJournalOneLinePerCall(t *testing.T) {
	var buf bytes.Buffer
	j := obsv.NewJournal(&buf, 0)
	e, err := New(bank(), Options{Mode: KeysMode, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	noElimination(e) // the solver stamps SAT calls
	const calls = 4
	var answers []GroupAnswer
	for i := 0; i < calls; i++ {
		rep, err := e.RangeAnswers(coupledSumQuery())
		if err != nil {
			t.Fatal(err)
		}
		answers = rep.Answers
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Without Options.Explain a line carries none of the explain
	// report's own keys.
	for _, key := range []string{`"components"`, `"algebra"`, `"constraint_build_ns"`} {
		if strings.Contains(buf.String(), key) {
			t.Errorf("journal written without Explain carries %s:\n%s", key, buf.String())
		}
	}
	entries, err := obsv.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != calls {
		t.Fatalf("journal has %d lines for %d calls", len(entries), calls)
	}
	first := entries[0]
	if first.Op != "range_answers/SUM" {
		t.Errorf("op = %q", first.Op)
	}
	if first.Fingerprint == "" || first.AnswerDigest == "" {
		t.Errorf("fingerprint/digest empty: %+v", first)
	}
	if first.Answers != len(answers) {
		t.Errorf("answers = %d, want %d", first.Answers, len(answers))
	}
	if first.Options.Mode != "keys" || first.Options.Algorithm == "" {
		t.Errorf("options = %+v", first.Options)
	}
	if first.SATCalls == 0 || first.TotalMS <= 0 {
		t.Errorf("counters not stamped: sat_calls=%d total_ms=%f", first.SATCalls, first.TotalMS)
	}
	if first.Anomaly != "" || first.Error != "" {
		t.Errorf("clean solve carries anomaly %q / error %q", first.Anomaly, first.Error)
	}
	// Same query, same instance: fingerprints and digests agree across
	// calls (the journal's group-by keys).
	for i, e := range entries[1:] {
		if e.Fingerprint != first.Fingerprint || e.AnswerDigest != first.AnswerDigest {
			t.Errorf("line %d fingerprint/digest drift: %+v", i+1, e)
		}
	}
	// A label on the context replaces the rendered query text.
	j2buf := &bytes.Buffer{}
	j2 := obsv.NewJournal(j2buf, 0)
	e2, err := New(bank(), Options{Mode: KeysMode, Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := obsv.WithQueryLabel(context.Background(), "paper-sum")
	if _, err := e2.RangeAnswersContext(ctx, paperSumQuery()); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	labeled, err := obsv.ReadJournal(j2buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(labeled) != 1 || labeled[0].Query != "paper-sum" {
		t.Errorf("labeled line = %+v", labeled)
	}
	// The running example's one component is eliminated.
	if l := labeled[0]; l.SATCalls != 0 || l.MaxSATRuns != 0 || l.ClosedForm != 1 || l.Vars != 4 || l.Clauses != 8 {
		t.Errorf("closed-form line: sat_calls %d, maxsat_runs %d, closed_form_components %d, cnf %d/%d; want 0, 0, 1, 4/8",
			l.SATCalls, l.MaxSATRuns, l.ClosedForm, l.Vars, l.Clauses)
	}
}

// TestJournalDoesNotPerturbAnswers is the journal-on ≡ journal-off
// property: over random instances and aggregates, enabling the journal
// must not change a single range.
func TestJournalDoesNotPerturbAnswers(t *testing.T) {
	ops := []cq.AggOp{cq.Sum, cq.CountStar, cq.Min, cq.Max}
	for seed := 1; seed <= 4; seed++ {
		r := rng(seed * 1000003)
		in := randomInstance(&r)
		for _, op := range ops {
			for _, grouped := range []bool{false, true} {
				q := joinQuery(op, grouped)
				plain, err := New(in, Options{Mode: KeysMode})
				if err != nil {
					t.Fatal(err)
				}
				journaled, err := New(in, Options{Mode: KeysMode, Journal: obsv.NewJournal(io.Discard, 0)})
				if err != nil {
					t.Fatal(err)
				}
				want, err1 := plain.RangeAnswers(q)
				got, err2 := journaled.RangeAnswers(q)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("seed %d %s grouped=%v: errors diverge: %v vs %v", seed, op, grouped, err1, err2)
				}
				if err1 != nil {
					continue
				}
				if !reflect.DeepEqual(want.Answers, got.Answers) {
					t.Errorf("seed %d %s grouped=%v: journal changed answers:\noff: %+v\non:  %+v",
						seed, op, grouped, want.Answers, got.Answers)
				}
			}
		}
	}
}

// TestJournalConcurrentSolves hammers one journal from parallel engine
// calls through a tiny queue (the -race target): appends may shed but
// must never block or race, and every call is accounted written or
// dropped.
func TestJournalConcurrentSolves(t *testing.T) {
	j := obsv.NewJournal(io.Discard, 2)
	e, err := New(bank(), Options{Mode: KeysMode, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 4, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := e.RangeAnswers(paperSumQuery()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := j.Written() + j.Dropped(); got != workers*per {
		t.Errorf("written+dropped = %d, want %d", got, workers*per)
	}
}

// TestJournalTimeoutLine: the journal line is the post-mortem of an
// anomalous call. An injected timeout leaves one line with the anomaly
// class, the error text and the trace id of the request, which keys its
// trace.
func TestJournalTimeoutLine(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := obsv.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(bank(), Options{Mode: KeysMode, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	tr := obsv.NewTracer()
	ctx, cancel := context.WithCancel(obsv.WithTracer(context.Background(), tr))
	cancel()
	_, qerr := e.RangeAnswersContext(ctx, paperSumQuery())
	if !errors.Is(qerr, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", qerr)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := obsv.ReadJournalFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("journal lines = %d, want 1", len(entries))
	}
	line := entries[0]
	if line.Anomaly != "timeout" || line.Error != qerr.Error() {
		t.Errorf("anomaly/error = %q/%q, want timeout/%q", line.Anomaly, line.Error, qerr)
	}
	if want := tr.TraceID().String(); line.TraceID != want {
		t.Errorf("trace id = %q, want the tracer's %q", line.TraceID, want)
	}
}

// TestTimeoutCountedOnceAsAnomaly: an injected timeout is recorded
// exactly once, under the "timeout" outcome of the call metrics, and
// its trace is closed: no span of the dead call is left open.
func TestTimeoutCountedOnceAsAnomaly(t *testing.T) {
	reg := obsv.NewRegistry()
	e, err := New(bank(), Options{Mode: KeysMode, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	tr := obsv.NewTracer()
	ctx, cancel := context.WithCancel(obsv.WithTracer(context.Background(), tr))
	cancel()
	if _, qerr := e.RangeAnswersContext(ctx, paperSumQuery()); !errors.Is(qerr, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", qerr)
	}
	if got := callCount(reg, func(values []string) bool { return values[2] == "timeout" }); got != 1 {
		t.Errorf("calls with outcome timeout = %d, want 1", got)
	}
	if got := callCount(reg, nil); got != 1 {
		t.Errorf("calls counted = %d, want 1", got)
	}
	if tr.Len() == 0 {
		t.Fatal("timed-out call left no span in its trace")
	}
	if n := tr.Open(); n != 0 {
		t.Errorf("%d spans of the timed-out call still open", n)
	}
}

// TestJournalErrorLine: failed calls journal too — the replayed
// workload's error rate is reconstructible from the journal alone.
func TestJournalErrorLine(t *testing.T) {
	var buf bytes.Buffer
	j := obsv.NewJournal(&buf, 0)
	e, err := New(bank(), Options{Mode: KeysMode, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, qerr := e.RangeAnswersContext(ctx, paperSumQuery()); qerr == nil {
		t.Fatal("cancelled call succeeded")
	}
	j.Close()
	entries, err := obsv.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("lines = %d, want 1 (errors journal too)", len(entries))
	}
	if entries[0].Error == "" || entries[0].AnswerDigest != "" {
		t.Errorf("error line = %+v", entries[0])
	}
}

// TestJournalRouteFields: range-query lines carry the planner route and
// its reason under every mode — auto and force-sat on the solver route
// with their own reasons, force-rewrite on the rewrite route or, when it
// rejects the query, no route at all and the classifier's reason in the
// error, as no executor ran — answer digests agree
// across routes (the digest excludes SAT-only provenance bits), and
// consistent-answer lines — which never route — carry no route at all.
func TestJournalRouteFields(t *testing.T) {
	r := rng(77)
	in := randomInstance(&r)
	q := joinQuery(cq.CountStar, true) // in C_aggforest
	distinct := joinQuery(cq.CountDistinct, false)
	journal := func(mode planner.Mode, run func(e *Engine)) []obsv.JournalEntry {
		t.Helper()
		var buf bytes.Buffer
		j := obsv.NewJournal(&buf, 0)
		e, err := New(in, Options{Mode: KeysMode, Planner: mode, Journal: j})
		if err != nil {
			t.Fatal(err)
		}
		run(e)
		j.Close()
		lines, err := obsv.ReadJournal(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range lines {
			if l.Options.Planner != mode.String() {
				t.Errorf("planner option = %q, want %q", l.Options.Planner, mode)
			}
		}
		return lines
	}
	must := func(_ any, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	u := cq.Single(cq.CQ{Head: []string{"g"}, Atoms: []cq.Atom{
		{Rel: "R", Args: []cq.Term{cq.V("k"), cq.V("g"), cq.V("v")}},
	}})
	autoLines := journal(planner.ModeAuto, func(e *Engine) {
		must(e.RangeAnswers(q))
		must(e.RangeAnswers(distinct))
		_, _, err := e.ConsistentAnswers(u)
		must(nil, err)
	})
	satLines := journal(planner.ModeSAT, func(e *Engine) { must(e.RangeAnswers(q)) })
	rwLines := journal(planner.ModeRewrite, func(e *Engine) {
		must(e.RangeAnswers(q))
		if _, err := e.RangeAnswers(distinct); !errors.Is(err, planner.ErrRewriteUnavailable) {
			t.Fatalf("force-rewrite on COUNT(DISTINCT): %v", err)
		}
	})
	if len(autoLines) != 3 || len(satLines) != 1 || len(rwLines) != 2 {
		t.Fatalf("lines: auto=%d sat=%d rewrite=%d", len(autoLines), len(satLines), len(rwLines))
	}
	for _, line := range autoLines[:2] {
		if line.Route != "sat" || line.RouteReason != planner.ReasonAuto {
			t.Errorf("auto line route %q reason %q", line.Route, line.RouteReason)
		}
	}
	if cons := autoLines[2]; cons.Route != "" || cons.RouteReason != "" {
		t.Errorf("consistent-answers line carries route %q (%q)", cons.Route, cons.RouteReason)
	}
	satLine := satLines[0]
	if satLine.Route != "sat" || satLine.RouteReason != planner.ReasonForcedSAT {
		t.Errorf("forced-sat line route %q reason %q", satLine.Route, satLine.RouteReason)
	}
	rw, rejected := rwLines[0], rwLines[1]
	if rw.Route != "rewrite" || rw.RouteReason != "" {
		t.Errorf("rewrite line route %q reason %q", rw.Route, rw.RouteReason)
	}
	if rejected.Route != "" || rejected.RouteReason != "" ||
		!strings.Contains(rejected.Error, "not supported by the rewriting") || rejected.AnswerDigest != "" {
		t.Errorf("rejected line route %q reason %q error %q digest %q",
			rejected.Route, rejected.RouteReason, rejected.Error, rejected.AnswerDigest)
	}
	// Identical answers from different executors hash identically.
	if d := rw.AnswerDigest; d == "" || d != satLine.AnswerDigest || d != autoLines[0].AnswerDigest {
		t.Errorf("digest drift across routes: rewrite %q vs sat %q vs auto %q",
			d, satLine.AnswerDigest, autoLines[0].AnswerDigest)
	}
}
