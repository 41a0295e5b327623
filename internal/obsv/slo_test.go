package obsv

import (
	"math"
	"strings"
	"testing"
	"time"
)

// sloHarness drives an SLOTracker on a fake clock with a mutable
// cumulative counter source.
type sloHarness struct {
	now    time.Time
	counts SLOCounts
	tr     *SLOTracker
}

func newSLOHarness(objective float64) *sloHarness {
	h := &sloHarness{now: time.Unix(1_700_000_000, 0)}
	h.tr = &SLOTracker{
		Source:        func() SLOCounts { return h.counts },
		Objective:     objective,
		LatencyTarget: 250 * time.Millisecond,
		Now:           func() time.Time { return h.now },
	}
	return h
}

func (h *sloHarness) tick(d time.Duration, add SLOCounts) {
	h.now = h.now.Add(d)
	h.counts.Total += add.Total
	h.counts.Good += add.Good
	h.counts.LatencyOK += add.LatencyOK
	h.tr.Observe()
}

func approx(got, want float64) bool { return math.Abs(got-want) < 1e-9 }

func TestSLOTrackerZeroTraffic(t *testing.T) {
	h := newSLOHarness(0.999)
	rep := h.tr.Report()
	if len(rep.Objectives) != 2 {
		t.Fatalf("objectives = %d, want 2", len(rep.Objectives))
	}
	for _, o := range rep.Objectives {
		if o.Attainment != 1 {
			t.Errorf("%s attainment = %v on zero traffic, want 1", o.Name, o.Attainment)
		}
		for _, w := range o.Windows {
			if w.Attainment != 1 || w.BurnRate != 0 {
				t.Errorf("%s %s: attainment=%v burn=%v on zero traffic", o.Name, w.Window, w.Attainment, w.BurnRate)
			}
		}
	}
}

func TestSLOTrackerBurnRates(t *testing.T) {
	h := newSLOHarness(0.99) // error budget 1%
	// One hour of history at one sample per minute: steady 100 req/min,
	// 99 good (burn exactly 1.0), all fast.
	for i := 0; i < 60; i++ {
		h.tick(time.Minute, SLOCounts{Total: 100, Good: 99, LatencyOK: 99})
	}
	rep := h.tr.Report()
	avail := rep.Objectives[0]
	if avail.Name != "availability" {
		t.Fatalf("objective order: %s first", avail.Name)
	}
	if !approx(avail.Attainment, 0.99) {
		t.Fatalf("all-time attainment = %v, want 0.99", avail.Attainment)
	}
	for _, w := range avail.Windows {
		if !approx(w.Attainment, 0.99) {
			t.Errorf("%s attainment = %v, want 0.99", w.Window, w.Attainment)
		}
		if !approx(w.BurnRate, 1.0) {
			t.Errorf("%s burn = %v, want 1.0 (erring exactly at budget)", w.Window, w.BurnRate)
		}
	}

	// Five error-free minutes: the 5m window heals to burn 0 while the
	// 1h window still carries the bad hour.
	for i := 0; i < 5; i++ {
		h.tick(time.Minute, SLOCounts{Total: 100, Good: 100, LatencyOK: 100})
	}
	rep = h.tr.Report()
	avail = rep.Objectives[0]
	w5, w1h := avail.Windows[0], avail.Windows[1]
	if w5.Window != "5m0s" || w1h.Window != "1h0m0s" {
		t.Fatalf("window order: %s, %s", w5.Window, w1h.Window)
	}
	if !approx(w5.Attainment, 1) || w5.BurnRate != 0 {
		t.Errorf("5m window did not heal: attainment=%v burn=%v", w5.Attainment, w5.BurnRate)
	}
	if w1h.BurnRate <= 0.5 {
		t.Errorf("1h burn = %v, want it still elevated", w1h.BurnRate)
	}

	// Latency objective reads the latency counters: all requests were
	// within target throughout.
	lat := rep.Objectives[1]
	if lat.Name != "latency" || !approx(lat.Attainment, 1) {
		t.Errorf("latency attainment = %v, want 1", lat.Attainment)
	}
	if lat.TargetMS != 250 {
		t.Errorf("latency target = %vms, want 250", lat.TargetMS)
	}
}

func TestSLOTrackerSamplingGap(t *testing.T) {
	h := newSLOHarness(0.999)
	h.tick(time.Second, SLOCounts{Total: 1, Good: 1})
	// Sub-second observations are coalesced into the previous sample.
	for i := 0; i < 10; i++ {
		h.tick(100*time.Millisecond, SLOCounts{Total: 1, Good: 1})
	}
	h.tr.mu.Lock()
	n := len(h.tr.samples)
	h.tr.mu.Unlock()
	if n > 3 {
		t.Fatalf("sample ring grew to %d entries for ~2s of wall clock", n)
	}
	// The report still reads the live source, not the last sample.
	rep := h.tr.Report()
	if got := rep.Objectives[0].Total; got != 11 {
		t.Fatalf("report total = %d, want the live 11", got)
	}
}

// TestSLOCountsFromLabeledFamilies pins the reconciliation contract the
// server relies on: an SLO source computed in one pass over a labeled
// duration histogram agrees with direct per-series arithmetic, and its
// counts are the _count series of the exposition.
func TestSLOCountsFromLabeledFamilies(t *testing.T) {
	reg := NewRegistry()
	dur := reg.LabeledHistogram("request_seconds", []string{"tenant", "route", "outcome"}, []float64{0.25, 1}, 16)
	dur.With("a", "sat", "ok").Observe(0.1)
	dur.With("a", "rewrite", "ok").Observe(0.2)
	dur.With("a", "sat", "ok").Observe(0.9) // ok but over the 0.25 target
	dur.With("b", "none", "error").Observe(0.1)
	dur.With("b", "none", "shed").Observe(0.01)

	var counts SLOCounts
	for _, s := range dur.Series() {
		counts.Total += s.Count
		if s.Values[2] == "ok" {
			counts.Good += s.Count
			counts.LatencyOK += s.CountUnder(0.25)
		}
	}
	want := SLOCounts{Total: 5, Good: 3, LatencyOK: 2}
	if counts != want {
		t.Fatalf("counts = %+v, want %+v", counts, want)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`request_seconds_count{tenant="a",route="sat",outcome="ok"} 2`,
		`request_seconds_count{tenant="a",route="rewrite",outcome="ok"} 1`,
		`request_seconds_count{tenant="b",route="none",outcome="error"} 1`,
		`request_seconds_count{tenant="b",route="none",outcome="shed"} 1`,
	} {
		if !strings.Contains(sb.String(), line+"\n") {
			t.Errorf("exposition lacks %q:\n%s", line, sb.String())
		}
	}
}
