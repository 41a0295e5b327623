package obsv

import (
	"sync"
	"testing"
)

func TestSummaryExactQuantiles(t *testing.T) {
	s := NewSummary()
	// 1..100 in a scrambled order: nearest-rank order statistics.
	for i := 0; i < 100; i++ {
		s.Observe(float64((i*37)%100 + 1))
	}
	snap := s.Snapshot()
	if snap.Count != 100 || snap.Sum != 5050 || snap.Max != 100 {
		t.Errorf("snapshot = %+v", snap)
	}
	if snap.P50 != 50 || snap.P90 != 90 || snap.P99 != 99 {
		t.Errorf("snapshot quantiles = %+v", snap)
	}
}

func TestSummaryEmpty(t *testing.T) {
	if snap := NewSummary().Snapshot(); snap != (SummarySnapshot{}) {
		t.Errorf("empty snapshot = %+v", snap)
	}
}

func TestSummaryConcurrent(t *testing.T) {
	s := NewSummary()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Observe(float64(i%100) / 100)
				if i%50 == 0 {
					s.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := s.Snapshot().Count; got != 2000 {
		t.Errorf("count = %d, want 2000", got)
	}
}
