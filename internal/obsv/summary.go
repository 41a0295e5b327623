package obsv

import (
	"math"
	"sort"
	"sync"
)

// Summary is a latency-quantile estimator over a bounded run (a replay
// of at most -replay-n requests): it keeps every observation, so its
// snapshot quantiles are exact order statistics. Long-lived processes
// expose latency as fixed-bucket histograms instead. All methods are
// safe for concurrent use.
type Summary struct {
	mu     sync.Mutex
	values []float64 // unsorted observations
	sorted bool      // values is currently sorted (invalidated by Observe)
	sum    float64
	max    float64
}

// NewSummary creates an empty summary.
func NewSummary() *Summary { return &Summary{} }

// Observe records one observation.
func (s *Summary) Observe(v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.values) == 0 || v > s.max {
		s.max = v
	}
	s.values = append(s.values, v)
	s.sorted = false
	s.sum += v
}

// quantileLocked returns the nearest-rank q-quantile (0 < q < 1) of
// the observations; the caller holds the lock and has at least one.
func (s *Summary) quantileLocked(q float64) float64 {
	if !s.sorted {
		sort.Float64s(s.values)
		s.sorted = true
	}
	return s.values[max(0, int(math.Ceil(q*float64(len(s.values))))-1)]
}

// SummarySnapshot is a point-in-time view of a summary: the standard
// latency percentiles plus the exact maximum, count and sum.
type SummarySnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Snapshot captures the summary's current quantiles.
func (s *Summary) Snapshot() SummarySnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := SummarySnapshot{Count: int64(len(s.values)), Sum: s.sum}
	if snap.Count == 0 {
		return snap
	}
	snap.Max = s.max
	snap.P50 = s.quantileLocked(0.5)
	snap.P90 = s.quantileLocked(0.9)
	snap.P99 = s.quantileLocked(0.99)
	return snap
}
