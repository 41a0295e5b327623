package obsv

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestJournalRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf, 0)
	for i := 0; i < 5; i++ {
		j.Append(JournalEntry{
			Query:    fmt.Sprintf("Q%d", i),
			Op:       "range_answers/SUM",
			TotalMS:  float64(i),
			SATCalls: int64(i * 3),
			Options:  JournalOptions{Algorithm: "maxhs", Mode: "keys"},
		})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if j.Written() != 5 || j.Dropped() != 0 {
		t.Fatalf("written/dropped = %d/%d, want 5/0", j.Written(), j.Dropped())
	}
	entries, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("decoded %d entries, want 5", len(entries))
	}
	for i, e := range entries {
		if e.Version != JournalVersion {
			t.Errorf("entry %d version = %d", i, e.Version)
		}
		if e.Query != fmt.Sprintf("Q%d", i) || e.SATCalls != int64(i*3) {
			t.Errorf("entry %d = %+v", i, e)
		}
		if e.Time.IsZero() {
			t.Errorf("entry %d missing timestamp", i)
		}
		if e.Options.Algorithm != "maxhs" || e.Options.Mode != "keys" {
			t.Errorf("entry %d options = %+v", i, e.Options)
		}
	}
}

func TestOpenJournalAppendsAcrossSessions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	for session := 0; session < 2; session++ {
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if j.Path() != path {
			t.Errorf("Path = %q", j.Path())
		}
		j.Append(JournalEntry{Query: fmt.Sprintf("s%d", session)})
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Query != "s0" || entries[1].Query != "s1" {
		t.Fatalf("entries = %+v, want s0 then s1 (append semantics)", entries)
	}
}

// blockedWriter blocks every Write until released, standing in for a
// stalled disk.
type blockedWriter struct{ release chan struct{} }

func (w *blockedWriter) Write(p []byte) (int, error) {
	<-w.release
	return len(p), nil
}

func TestJournalAppendNeverBlocks(t *testing.T) {
	bw := &blockedWriter{release: make(chan struct{})}
	j := NewJournal(bw, 4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Far more appends than queue depth against a wedged writer:
		// every one must return immediately, shedding the excess.
		for i := 0; i < 1000; i++ {
			j.Append(JournalEntry{Query: "hammer"})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Append blocked on a stalled writer")
	}
	if j.Dropped() == 0 {
		t.Error("no drops recorded despite a wedged writer")
	}
	close(bw.release) // unwedge so Close can drain
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := j.Written() + j.Dropped(); got != 1000 {
		t.Errorf("written+dropped = %d, want 1000 (no entry lost untracked)", got)
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Append(JournalEntry{})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if j.Written() != 0 || j.Dropped() != 0 || j.Path() != "" {
		t.Error("nil journal accessors must return zero values")
	}
}

func TestJournalReaderRejectsVersionAndGarbage(t *testing.T) {
	bad := `{"v":99,"query":"future"}` + "\n"
	if _, err := ReadJournal(strings.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Errorf("version mismatch not rejected: %v", err)
	}
	garbage := `{"v":1,"query":"ok"}` + "\nnot json\n"
	entries, err := ReadJournal(strings.NewReader(garbage))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("malformed line not rejected with its line number: %v", err)
	}
	if len(entries) != 1 {
		t.Errorf("entries before the bad line = %d, want 1", len(entries))
	}
}

func TestJournalWritePrometheus(t *testing.T) {
	j := NewJournal(io.Discard, 0)
	j.Append(JournalEntry{})
	j.Close()
	var buf bytes.Buffer
	if err := j.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE " + MetricJournalWritten + " counter",
		MetricJournalWritten + " 1",
		MetricJournalDropped + " 0",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, buf.String())
		}
	}
}

func TestQueryLabelContext(t *testing.T) {
	ctx := context.Background()
	if got := QueryLabelFrom(ctx); got != "" {
		t.Errorf("label on empty context = %q", got)
	}
	if got := QueryLabelFrom(WithQueryLabel(ctx, "Q1")); got != "Q1" {
		t.Errorf("label = %q", got)
	}
	if WithQueryLabel(ctx, "") != ctx {
		t.Error("empty label must not allocate a context")
	}
}

// TestJournalConcurrentAppend hammers Append from many goroutines (the
// -race target): the solve hot path appends from parallel workers.
func TestJournalConcurrentAppend(t *testing.T) {
	j := NewJournal(io.Discard, 8)
	var wg sync.WaitGroup
	const workers, per = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				j.Append(JournalEntry{Query: fmt.Sprintf("w%d", w)})
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := j.Written() + j.Dropped(); got != workers*per {
		t.Errorf("written+dropped = %d, want %d", got, workers*per)
	}
}

func TestJournalEntryJSONShape(t *testing.T) {
	// The wide-event schema is an interface consumed by external tooling
	// (jq, the CI smoke step): pin the key field names.
	e := JournalEntry{Query: "Q1", Anomaly: "timeout"}
	e.Version = JournalVersion
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"v":1`, `"query":"Q1"`, `"anomaly":"timeout"`, `"total_ms"`, `"sat_calls"`, `"options"`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("JSON missing %s:\n%s", key, b)
		}
	}
	if strings.Contains(string(b), `"error"`) {
		t.Errorf("empty error field must be omitted:\n%s", b)
	}
	// The explain report's own facts are absent from a line written
	// without Options.Explain.
	for _, key := range []string{`"components"`, `"constraint_build_ns"`, `"algebra"`} {
		if strings.Contains(string(b), key) {
			t.Errorf("JSON carries the explain-only key %s:\n%s", key, b)
		}
	}
}
