package obsv

import (
	"sync"
	"time"
)

// SLOCounts is one cumulative reading of the request counts the SLO
// plane is computed from. Total/Good drive the availability objective
// (Good = requests that did not fail: everything but error/timeout/shed,
// by the caller's definition); Good/LatencyOK drive the latency
// objective (LatencyOK = good requests answered within the latency
// target). All three are cumulative since process start, like the
// underlying metric family.
type SLOCounts struct {
	Total     int64 `json:"total"`
	Good      int64 `json:"good"`
	LatencyOK int64 `json:"latency_ok"`
}

// SLOWindow is the attainment and burn rate of one objective over one
// trailing window.
type SLOWindow struct {
	// Window is the nominal window length, e.g. "5m0s".
	Window string `json:"window"`
	// ActualS is the span actually covered (shorter than Window early in
	// the process lifetime).
	ActualS float64 `json:"actual_s"`
	// Total/Good are the in-window request deltas.
	Total int64 `json:"total"`
	Good  int64 `json:"good"`
	// Attainment is Good/Total in [0,1]; 1 when the window saw no
	// requests (no traffic means no budget burned).
	Attainment float64 `json:"attainment"`
	// BurnRate is the window error rate divided by the objective's error
	// budget (1-objective): 1.0 burns the budget exactly at the rate the
	// objective allows, >1 exhausts it early. 0 when the window saw no
	// requests.
	BurnRate float64 `json:"burn_rate"`
}

// SLOObjective is one objective's live report.
type SLOObjective struct {
	// Name is "availability" or "latency".
	Name string `json:"name"`
	// Objective is the target fraction in (0,1), e.g. 0.999.
	Objective float64 `json:"objective"`
	// TargetMS is the latency target in milliseconds (latency objective
	// only).
	TargetMS float64 `json:"target_ms,omitempty"`
	// Attainment is the all-time attainment since process start.
	Attainment float64 `json:"attainment"`
	Total      int64   `json:"total"`
	Good       int64   `json:"good"`
	// Windows reports multi-window attainment/burn (5m, 1h).
	Windows []SLOWindow `json:"windows"`
}

// SLOReport is the /debug/slo payload.
type SLOReport struct {
	Time       time.Time      `json:"time"`
	Objectives []SLOObjective `json:"objectives"`
}

// sloSample is one timestamped cumulative reading in the tracker ring.
type sloSample struct {
	at time.Time
	c  SLOCounts
}

// sloMaxSamples bounds the sample ring; at the >=1s sampling gap this
// comfortably covers the longest (1h) window.
const sloMaxSamples = 4096

// SLOWindows are the trailing windows reported by the tracker, the
// classic multi-window burn-rate pair.
var SLOWindows = []time.Duration{5 * time.Minute, time.Hour}

// SLOTracker computes availability and latency-objective attainment with
// multi-window burn rates from a caller-supplied cumulative count
// source — in cavsatd, the labeled request-duration histogram, so
// /debug/slo reconciles with /metrics by construction. Observe() is
// called per request completion and samples the source at most once per
// second; Report() renders the current state.
type SLOTracker struct {
	// Source reads the current cumulative counts. Must be safe for
	// concurrent use.
	Source func() SLOCounts
	// Objective is the target fraction in (0,1) of both objectives;
	// LatencyTarget is the latency threshold the LatencyOK counts were
	// computed against (informational, echoed in reports).
	Objective     float64
	LatencyTarget time.Duration
	// Now is the clock (time.Now when nil); injectable for tests.
	Now func() time.Time

	mu      sync.Mutex
	samples []sloSample // ring, chronological
	next    int
	filled  bool
}

// Observe records a cumulative sample if at least a second has passed
// since the previous one. Call it on each request completion (and from
// any periodic ticker); cheap no-op within the gap.
func (t *SLOTracker) Observe() {
	if t == nil || t.Source == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	if n := t.lastSample(); n != nil && now.Sub(n.at) < time.Second {
		t.mu.Unlock()
		return
	}
	c := t.Source // read under lock is fine, but call outside
	t.mu.Unlock()
	counts := c()
	t.mu.Lock()
	defer t.mu.Unlock()
	// Re-check the gap after the (unlocked) source read.
	if n := t.lastSample(); n != nil && now.Sub(n.at) < time.Second {
		return
	}
	s := sloSample{at: now, c: counts}
	if len(t.samples) < sloMaxSamples {
		t.samples = append(t.samples, s)
	} else {
		t.samples[t.next] = s
		t.next = (t.next + 1) % len(t.samples)
		t.filled = true
	}
}

func (t *SLOTracker) now() time.Time {
	if t.Now != nil {
		return t.Now()
	}
	return time.Now()
}

// lastSample returns the most recent sample (caller holds t.mu).
func (t *SLOTracker) lastSample() *sloSample {
	if len(t.samples) == 0 {
		return nil
	}
	i := len(t.samples) - 1
	if t.filled {
		i = (t.next - 1 + len(t.samples)) % len(t.samples)
	}
	return &t.samples[i]
}

// chronological returns the retained samples oldest-first (caller holds
// t.mu).
func (t *SLOTracker) chronological() []sloSample {
	if !t.filled {
		return t.samples
	}
	out := make([]sloSample, 0, len(t.samples))
	out = append(out, t.samples[t.next:]...)
	out = append(out, t.samples[:t.next]...)
	return out
}

// Report computes the live SLO report from the current source reading
// and the sample ring.
func (t *SLOTracker) Report() SLOReport {
	now := t.now()
	cur := SLOCounts{}
	if t.Source != nil {
		cur = t.Source()
	}
	t.mu.Lock()
	samples := append([]sloSample(nil), t.chronological()...)
	t.mu.Unlock()

	avail := SLOObjective{
		Name:       "availability",
		Objective:  t.Objective,
		Total:      cur.Total,
		Good:       cur.Good,
		Attainment: ratio(cur.Good, cur.Total),
	}
	lat := SLOObjective{
		Name:       "latency",
		Objective:  t.Objective,
		TargetMS:   float64(t.LatencyTarget.Microseconds()) / 1000,
		Total:      cur.Good,
		Good:       cur.LatencyOK,
		Attainment: ratio(cur.LatencyOK, cur.Good),
	}
	for _, w := range SLOWindows {
		base, actual := windowBase(samples, now, w, cur)
		avail.Windows = append(avail.Windows, windowReport(
			w, actual, cur.Total-base.Total, cur.Good-base.Good, t.Objective))
		lat.Windows = append(lat.Windows, windowReport(
			w, actual, cur.Good-base.Good, cur.LatencyOK-base.LatencyOK, t.Objective))
	}
	return SLOReport{Time: now, Objectives: []SLOObjective{avail, lat}}
}

// windowBase finds the cumulative reading at (or just before) the start
// of the trailing window — the oldest sample not older than the window,
// falling back to the zero reading when the process is younger than the
// window and no sample predates it.
func windowBase(samples []sloSample, now time.Time, w time.Duration, cur SLOCounts) (SLOCounts, float64) {
	cutoff := now.Add(-w)
	base := SLOCounts{}
	baseAt := time.Time{}
	for _, s := range samples {
		if s.at.After(cutoff) {
			break
		}
		base = s.c
		baseAt = s.at
	}
	if baseAt.IsZero() {
		// No sample predates the window: the covered span is from the
		// first sample (or zero history) to now, capped at the window.
		if len(samples) > 0 {
			actual := now.Sub(samples[0].at).Seconds()
			if actual > w.Seconds() {
				actual = w.Seconds()
			}
			// Everything since process start is in-window.
			return SLOCounts{}, actual
		}
		return SLOCounts{}, 0
	}
	return base, now.Sub(baseAt).Seconds()
}

func windowReport(w time.Duration, actualS float64, total, good int64, objective float64) SLOWindow {
	if total < 0 {
		total = 0
	}
	if good < 0 {
		good = 0
	}
	if good > total {
		good = total
	}
	win := SLOWindow{
		Window:  w.String(),
		ActualS: actualS,
		Total:   total,
		Good:    good,
	}
	if total == 0 {
		win.Attainment = 1
		return win
	}
	win.Attainment = float64(good) / float64(total)
	budget := 1 - objective
	if budget > 0 {
		win.BurnRate = (1 - win.Attainment) / budget
	}
	return win
}

func ratio(good, total int64) float64 {
	if total <= 0 {
		return 1
	}
	return float64(good) / float64(total)
}
