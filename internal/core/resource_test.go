package core

import (
	"context"
	"runtime"
	"testing"
)

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
