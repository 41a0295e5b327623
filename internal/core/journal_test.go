package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
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

// TestJournalFlightLinkage checks both halves of the journal↔bundle
// cross-reference on an injected timeout: the journal line names the
// bundle file, and the bundle on disk carries the journal line.
func TestJournalFlightLinkage(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.jsonl")
	j, err := obsv.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(bank(), Options{
		Mode:      KeysMode,
		Journal:   j,
		OnAnomaly: obsv.DumpDir(dir),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, qerr := e.RangeAnswersContext(ctx, paperSumQuery()); !errors.Is(qerr, ErrTimeout) {
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
	if line.Anomaly != "timeout" || line.Error == "" {
		t.Errorf("anomaly/error = %q/%q, want timeout with error text", line.Anomaly, line.Error)
	}
	if line.FlightBundle == "" {
		t.Fatal("journal line carries no flight bundle path")
	}
	raw, err := os.ReadFile(line.FlightBundle)
	if err != nil {
		t.Fatalf("bundle file from journal line: %v", err)
	}
	var bundle struct {
		Reason  string            `json:"reason"`
		Journal obsv.JournalEntry `json:"journal"`
		File    string            `json:"file"`
	}
	if err := json.Unmarshal(raw, &bundle); err != nil {
		t.Fatalf("bundle is not JSON: %v", err)
	}
	if bundle.Reason != "timeout" {
		t.Errorf("bundle reason = %q", bundle.Reason)
	}
	// Reverse link: the bundle embeds the journal line itself, which
	// differs only in the bundle path written after the dump.
	want := line
	want.FlightBundle = ""
	if !reflect.DeepEqual(bundle.Journal, want) {
		t.Errorf("bundle journal entry = %+v, want the journal line %+v", bundle.Journal, want)
	}
	if bundle.File != line.FlightBundle {
		t.Errorf("bundle file = %q, journal line says %q", bundle.File, line.FlightBundle)
	}
	if !strings.HasPrefix(filepath.Base(bundle.File), "flight-") && !strings.Contains(bundle.File, dir) {
		t.Errorf("bundle file %q not under dump dir %q", bundle.File, dir)
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
// rejects the query, with the classifier's reason — answer digests agree
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
	if rejected.Route != "sat" || !strings.Contains(rejected.RouteReason, "not supported by the rewriting") ||
		rejected.Error == "" || rejected.AnswerDigest != "" {
		t.Errorf("rejected line route %q reason %q error %q digest %q",
			rejected.Route, rejected.RouteReason, rejected.Error, rejected.AnswerDigest)
	}
	// Identical answers from different executors hash identically.
	if d := rw.AnswerDigest; d == "" || d != satLine.AnswerDigest || d != autoLines[0].AnswerDigest {
		t.Errorf("digest drift across routes: rewrite %q vs sat %q vs auto %q",
			d, satLine.AnswerDigest, autoLines[0].AnswerDigest)
	}
}
