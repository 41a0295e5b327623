package obsv

import (
	"testing"
	"time"
)

func retained(id TraceID, reason string) RetainedTrace {
	return RetainedTrace{TraceID: id, Reason: reason, Start: time.Now(), Tracer: NewTracerWithID(id)}
}

func TestTraceStoreFIFO(t *testing.T) {
	s := NewTraceStore(2)
	a, b, c := NewTraceID(), NewTraceID(), NewTraceID()
	s.Keep(retained(a, "slow"))
	s.Keep(retained(b, "error"))
	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2", s.Len())
	}
	s.Keep(retained(c, "timeout"))
	if s.Len() != 2 {
		t.Fatalf("len after eviction = %d, want 2", s.Len())
	}
	if _, ok := s.Get(a); ok {
		t.Fatal("oldest trace survived eviction")
	}
	for _, id := range []TraceID{b, c} {
		if _, ok := s.Get(id); !ok {
			t.Fatalf("trace %s missing", id)
		}
	}
	if got := s.List(); len(got) != 2 || got[0].TraceID != b || got[1].TraceID != c {
		t.Fatalf("List order wrong: %v", got)
	}
	if s.Kept() != 3 || s.Evicted() != 1 {
		t.Fatalf("kept/evicted = %d/%d, want 3/1", s.Kept(), s.Evicted())
	}

	// Re-keeping an id replaces in place, no eviction.
	s.Keep(retained(c, "slow"))
	if s.Len() != 2 || s.Evicted() != 1 {
		t.Fatalf("replace evicted: len=%d evicted=%d", s.Len(), s.Evicted())
	}
	if rt, _ := s.Get(c); rt.Reason != "slow" {
		t.Fatalf("replace kept the old entry: reason=%q", rt.Reason)
	}

	// Zero ids and nil stores are ignored.
	s.Keep(RetainedTrace{})
	if s.Len() != 2 {
		t.Fatal("zero-id trace was retained")
	}
	var nilStore *TraceStore
	nilStore.Keep(retained(a, "x"))
	if nilStore.Len() != 0 {
		t.Fatal("nil store miscounted")
	}
}
