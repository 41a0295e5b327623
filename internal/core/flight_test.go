package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"aggcavsat/internal/maxsat"
	"aggcavsat/internal/obsv"
)

// bundleCapture collects OnAnomaly deliveries; the hook can fire from
// the engine goroutine while the test inspects, so it locks.
type bundleCapture struct {
	mu      sync.Mutex
	bundles []*obsv.Bundle
}

func (c *bundleCapture) hook() func(*obsv.Bundle) {
	return func(b *obsv.Bundle) {
		c.mu.Lock()
		c.bundles = append(c.bundles, b)
		c.mu.Unlock()
	}
}

func (c *bundleCapture) all() []*obsv.Bundle {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*obsv.Bundle(nil), c.bundles...)
}

func TestFlightBundleOnSlowQuery(t *testing.T) {
	// SlowQuery = 1ns marks every successful query as anomalous, which
	// makes the dump deterministic without injecting failures. The
	// progress callback and the flight recorder see the same reports, so
	// the bundle's last "progress" event must match the last callback.
	var last maxsat.ProgressInfo
	var lastMu sync.Mutex
	capt := &bundleCapture{}
	e, err := New(bank(), Options{
		Mode: KeysMode,
		// Sequential: with parallel component solves the "last" report
		// seen by the callback and by the recorder could interleave.
		Parallelism: 1,
		SlowQuery:   time.Nanosecond,
		OnAnomaly:   capt.hook(),
		MaxSAT: maxsat.Options{
			ProgressEvery: 1,
			Progress: func(p maxsat.ProgressInfo) {
				lastMu.Lock()
				last = p
				lastMu.Unlock()
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Without elimination Example IV.2's component goes to MaxSAT,
	// which reports progress.
	rep, err := noElimination(e).RangeAnswers(coupledSumQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Answers) != 1 {
		t.Fatalf("answers = %+v", rep.Answers)
	}

	bundles := capt.all()
	if len(bundles) != 1 {
		t.Fatalf("OnAnomaly fired %d times, want 1", len(bundles))
	}
	b := bundles[0]
	if b.Reason != "slow" || b.Journal.Error != "" {
		t.Errorf("bundle = reason %q err %q, want slow/\"\"", b.Reason, b.Journal.Error)
	}
	if b.Journal.Op != "range_answers/SUM" {
		t.Errorf("bundle op = %q", b.Journal.Op)
	}
	if len(b.Events) == 0 {
		t.Fatal("bundle has no flight events")
	}
	kinds := map[string]int{}
	var lastProgress *obsv.BundleEvent
	for i := range b.Events {
		kinds[b.Events[i].Kind]++
		if b.Events[i].Kind == "progress" {
			lastProgress = &b.Events[i]
		}
	}
	for _, want := range []string{"phase", "cnf", "progress"} {
		if kinds[want] == 0 {
			t.Errorf("no %q events in bundle (kinds: %v)", want, kinds)
		}
	}
	lastMu.Lock()
	want := last
	lastMu.Unlock()
	if lastProgress == nil {
		t.Fatal("no progress event despite a registered progress callback")
	}
	if got := lastProgress.Attrs["conflicts"].(int64); got != want.Conflicts {
		t.Errorf("last progress event conflicts = %d, want %d (last callback)", got, want.Conflicts)
	}
	if got := lastProgress.Attrs["sat_calls"].(int64); got != want.SATCalls {
		t.Errorf("last progress event sat_calls = %d, want %d (last callback)", got, want.SATCalls)
	}
	// The bundle's journal entry is the typed record of the solve that
	// was dumped: its counters are the call's Stats.
	if b.Journal.SATCalls == 0 || b.Journal.SATCalls != rep.Stats.SATCalls {
		t.Errorf("bundle SAT calls = %d, want Stats.SATCalls = %d (> 0)", b.Journal.SATCalls, rep.Stats.SATCalls)
	}
	if b.Resources.AllocBytes < 0 {
		t.Errorf("bundle AllocBytes = %d, want >= 0 (monotone counter)", b.Resources.AllocBytes)
	}
	if b.Resources.HeapBytes <= 0 {
		t.Error("bundle resource delta shows no live heap")
	}

	// With elimination the running example needs no solver: its bundle
	// holds one closed_form cnf event for its one component and no
	// progress.
	e.elimBudget = elimTableBudget
	rep, err = e.RangeAnswers(paperSumQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Answers) != 1 {
		t.Fatalf("answers = %+v", rep.Answers)
	}
	bundles = capt.all()
	if len(bundles) != 2 {
		t.Fatalf("OnAnomaly fired %d times, want 2", len(bundles))
	}
	kinds = map[string]int{}
	var closedForm *obsv.BundleEvent
	for i, ev := range bundles[1].Events {
		kinds[ev.Kind]++
		if ev.Kind == "cnf" && ev.Name == "closed_form" {
			closedForm = &bundles[1].Events[i]
		}
	}
	if kinds["progress"] != 0 || kinds["cnf"] != 1 || closedForm == nil {
		t.Fatalf("closed-form bundle kinds = %v, closed_form event %v; want 1 cnf (closed_form), 0 progress", kinds, closedForm)
	}
	if got := closedForm.Attrs["components"].(int64); got != 1 {
		t.Errorf("closed_form components = %d, want 1", got)
	}
	if b := bundles[1].Journal; b.SATCalls != 0 || b.ClosedForm != 1 {
		t.Errorf("closed-form bundle: sat_calls %d, closed_form_components %d, want 0 and 1", b.SATCalls, b.ClosedForm)
	}
}

func TestFlightBundleOnTimeout(t *testing.T) {
	capt := &bundleCapture{}
	e, err := New(bank(), Options{Mode: KeysMode, OnAnomaly: capt.hook()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // injected timeout: the call dies on its first context check
	_, qerr := e.RangeAnswersContext(ctx, paperSumQuery())
	if !errors.Is(qerr, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", qerr)
	}
	bundles := capt.all()
	if len(bundles) != 1 {
		t.Fatalf("OnAnomaly fired %d times, want 1", len(bundles))
	}
	b := bundles[0]
	if b.Reason != "timeout" {
		t.Errorf("bundle reason = %q, want timeout", b.Reason)
	}
	if b.Journal.Error == "" {
		t.Error("timeout bundle carries no error text")
	}
}

func TestFlightDisabledWithoutHook(t *testing.T) {
	// Without OnAnomaly no recorder is allocated: the hot path must pay
	// only nil checks (the no-regression acceptance criterion).
	e := mustEngine(t, bank())
	ctx, rc := e.begin(context.Background(), "q", "q", "q")
	if rc.flight != nil {
		t.Fatal("flight recorder allocated without an OnAnomaly hook")
	}
	if obsv.FlightRecorderFrom(ctx) != nil {
		t.Fatal("context carries a flight recorder while disabled")
	}
	e.end(ctx, rc, nil, errors.New("boom")) // anomaly without a hook: no dump
}

func TestStatsResourceAccounting(t *testing.T) {
	// The bank instance is tiny: its phases allocate from cached spans,
	// which the runtime's consistent heap stats only surface at span
	// granularity, so the alloc deltas can legitimately read zero here.
	// This asserts the invariants (non-negative, live heap populated);
	// TestPhaseResourcePlumbing pins down positive attribution.
	e := mustEngine(t, bank())
	rep, err := e.RangeAnswers(groupedSumQuery())
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Stats
	for name, v := range map[string]int64{
		"WitnessAllocBytes": st.WitnessAllocBytes,
		"EncodeAllocBytes":  st.EncodeAllocBytes,
		"SolveAllocBytes":   st.SolveAllocBytes,
		"GCCycles":          st.GCCycles,
	} {
		if v < 0 {
			t.Errorf("%s = %d, want >= 0", name, v)
		}
	}
	if st.HeapBytes <= 0 {
		t.Errorf("HeapBytes = %d, want > 0 (live heap is never empty)", st.HeapBytes)
	}
}

func TestPhaseResourcePlumbing(t *testing.T) {
	// A phase that allocates ~8 MiB in large objects (which update the
	// runtime's consistent heap stats immediately) must land its bytes in
	// the phase counter and Stats field.
	e := mustEngine(t, bank())
	_, rc := e.begin(context.Background(), "q", "q", "q")
	pm := startPhase()
	hold := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		hold = append(hold, make([]byte, 128<<10))
	}
	rc.endPhase(phaseEncode, pm)
	runtime.KeepAlive(hold)
	st := rc.stats
	if st.EncodeAllocBytes < 4<<20 {
		t.Errorf("EncodeAllocBytes = %d after ~8 MiB allocated in the phase, want >= 4 MiB", st.EncodeAllocBytes)
	}
	if st.HeapBytes <= 0 {
		t.Errorf("HeapBytes = %d, want > 0", st.HeapBytes)
	}
	if st.EncodeTime <= 0 {
		t.Errorf("EncodeTime = %v, want > 0", st.EncodeTime)
	}
}
