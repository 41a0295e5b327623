package obsv

import (
	"sync"
	"time"
)

// DefaultRetainedTraces bounds a TraceStore created with capacity <= 0.
const DefaultRetainedTraces = 64

// RetainedTrace is one request trace kept by tail-based sampling: the
// request's whole span tree (its per-request tracer) plus enough request
// identity to cross-link it with the journal line (the explain report)
// carrying the same trace id.
type RetainedTrace struct {
	TraceID TraceID
	// Reason explains why the tail-sampling decision kept this trace:
	// the request outcome ("shed", "timeout", "error") or "slow" for a
	// latency-objective breach.
	Reason string
	// Query labels the request (SQL text or workload label).
	Query    string
	Tenant   string
	Start    time.Time
	Duration time.Duration
	Tracer   *Tracer
}

// TraceStore is a bounded FIFO of retained request traces backing
// /debug/trace?trace=<id> lookups. Keep never blocks and never grows
// past the capacity: the oldest retained trace is evicted. All methods
// are nil-receiver-safe so the serving path retains unconditionally.
type TraceStore struct {
	mu      sync.Mutex
	traces  []RetainedTrace // FIFO, oldest first
	byID    map[TraceID]int // trace id → index into traces
	cap     int
	kept    int64
	evicted int64
}

// NewTraceStore creates a store retaining the last capacity traces
// (DefaultRetainedTraces when capacity <= 0).
func NewTraceStore(capacity int) *TraceStore {
	if capacity <= 0 {
		capacity = DefaultRetainedTraces
	}
	return &TraceStore{
		traces: make([]RetainedTrace, 0, capacity),
		byID:   make(map[TraceID]int, capacity),
		cap:    capacity,
	}
}

// Keep retains one trace, evicting the oldest when full. A second Keep
// with the same trace id replaces the earlier entry.
func (s *TraceStore) Keep(t RetainedTrace) {
	if s == nil || t.TraceID.IsZero() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.byID[t.TraceID]; ok {
		s.traces[i] = t
		return
	}
	if len(s.traces) >= s.cap {
		evict := s.traces[0]
		delete(s.byID, evict.TraceID)
		copy(s.traces, s.traces[1:])
		s.traces = s.traces[:len(s.traces)-1]
		for id, i := range s.byID {
			s.byID[id] = i - 1
		}
		s.evicted++
	}
	s.byID[t.TraceID] = len(s.traces)
	s.traces = append(s.traces, t)
	s.kept++
}

// Get returns the retained trace with the given id.
func (s *TraceStore) Get(id TraceID) (RetainedTrace, bool) {
	if s == nil {
		return RetainedTrace{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.byID[id]
	if !ok {
		return RetainedTrace{}, false
	}
	return s.traces[i], true
}

// List returns the retained traces, oldest first.
func (s *TraceStore) List() []RetainedTrace {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RetainedTrace, len(s.traces))
	copy(out, s.traces)
	return out
}

// Len returns the number of currently retained traces.
func (s *TraceStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.traces)
}

// Kept returns the number of traces ever retained; Evicted the number
// pushed out by the FIFO bound.
func (s *TraceStore) Kept() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.kept
}

// Evicted returns the number of traces evicted by the FIFO bound.
func (s *TraceStore) Evicted() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}
