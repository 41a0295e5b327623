package obsv

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestFlightRecorderRingWrap(t *testing.T) {
	r := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		r.Record("note", fmt.Sprintf("e%d", i), Int64("i", int64(i)))
	}
	if got := r.Total(); got != 10 {
		t.Fatalf("Total() = %d, want 10", got)
	}
	events := r.Events()
	if len(events) != 4 {
		t.Fatalf("len(Events()) = %d, want 4 (ring capacity)", len(events))
	}
	// The ring keeps the most recent events, in chronological order.
	for i, ev := range events {
		want := fmt.Sprintf("e%d", 6+i)
		if ev.Name != want {
			t.Errorf("events[%d].Name = %q, want %q", i, ev.Name, want)
		}
	}
	for i := 1; i < len(events); i++ {
		if events[i].Time.Before(events[i-1].Time) {
			t.Errorf("events out of chronological order at %d", i)
		}
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var r *FlightRecorder
	r.Record("note", "ignored") // must not panic
	if got := r.Events(); got != nil {
		t.Errorf("nil recorder Events() = %v, want nil", got)
	}
	if got := r.Total(); got != 0 {
		t.Errorf("nil recorder Total() = %d, want 0", got)
	}
	ctx := WithFlightRecorder(context.Background(), nil)
	if got := FlightRecorderFrom(ctx); got != nil {
		t.Errorf("FlightRecorderFrom = %v, want nil", got)
	}
}

func TestFlightRecorderContext(t *testing.T) {
	r := NewFlightRecorder(0)
	ctx := WithFlightRecorder(context.Background(), r)
	if got := FlightRecorderFrom(ctx); got != r {
		t.Fatalf("FlightRecorderFrom = %v, want the installed recorder", got)
	}
}

func TestBundleRoundTrip(t *testing.T) {
	rec := NewFlightRecorder(2)
	rec.Record("phase", "witness", Int64("ns", 1000))
	rec.Record("progress", "maxhs", Int64("conflicts", 7), String("phase", "model"))
	rec.Record("bound", "maxhs", Int64("lb", 0), Int64("ub", 3))

	entry := JournalEntry{
		Version: JournalVersion, Time: time.Now().Add(-time.Second),
		Query: "range_answers/SUM", Op: "range_answers/SUM", TotalMS: 1000,
		SATCalls: 5, Anomaly: "budget", Error: "conflict budget exhausted",
	}
	b := NewBundle(entry, rec, ResourceDelta{AllocBytes: 4096, HeapBytes: 1 << 20, GCCycles: 1})

	if b.DroppedEvents != 1 {
		t.Errorf("DroppedEvents = %d, want 1 (capacity 2, 3 recorded)", b.DroppedEvents)
	}
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBundle(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Reason != "budget" || got.Journal.Query != "range_answers/SUM" || got.Journal.Error == "" {
		t.Errorf("decoded header = %q/%q/%q", got.Reason, got.Journal.Query, got.Journal.Error)
	}
	if got.Journal.TotalMS != 1000 {
		t.Errorf("TotalMS = %v, want 1000", got.Journal.TotalMS)
	}
	if len(got.Events) != 2 {
		t.Fatalf("decoded %d events, want 2", len(got.Events))
	}
	last := got.Events[1]
	if last.Kind != "bound" || last.Name != "maxhs" {
		t.Errorf("last event = %s/%s, want bound/maxhs", last.Kind, last.Name)
	}
	// JSON numbers decode as float64 in the any-typed attrs.
	if ub, ok := last.Attrs["ub"].(float64); !ok || ub != 3 {
		t.Errorf("last event ub = %v, want 3", last.Attrs["ub"])
	}
	if got.Journal.SATCalls != 5 || !got.Journal.Time.Equal(entry.Time) {
		t.Errorf("journal entry not preserved: %+v", got.Journal)
	}
	if got.Resources.AllocBytes != 4096 {
		t.Errorf("resources not preserved: %+v", got.Resources)
	}
}

func TestReadBundleRejectsWrongVersion(t *testing.T) {
	// 1 is the pre-journal-entry layout (a metric snapshot and a journal
	// path); 99 is from the future.
	for _, v := range []string{`{"version": 1}`, `{"version": 99}`} {
		if _, err := ReadBundle(strings.NewReader(v)); err == nil {
			t.Fatalf("ReadBundle accepted %s", v)
		}
	}
}

func TestDumpDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "flights")
	sink := DumpDir(dir)
	rec := NewFlightRecorder(8)
	rec.Record("phase", "solve", Int64("ns", 42))
	b := NewBundle(JournalEntry{Time: time.Now(), Query: "q", Anomaly: "timeout", Error: "deadline"},
		rec, ResourceDelta{})
	sink(b)

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("dump dir has %d files, want 1", len(entries))
	}
	name := entries[0].Name()
	if !strings.HasPrefix(name, "flight-") || !strings.HasSuffix(name, "-timeout.json") {
		t.Errorf("dump filename %q does not follow flight-<stamp>-<seq>-<reason>.json", name)
	}
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := ReadBundle(f)
	if err != nil {
		t.Fatal(err)
	}
	if got.Reason != "timeout" || len(got.Events) != 1 {
		t.Errorf("dumped bundle = reason %q, %d events", got.Reason, len(got.Events))
	}
}
