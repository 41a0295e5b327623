package obsv

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultFlightEvents is the ring capacity of a flight recorder created
// with capacity <= 0.
const DefaultFlightEvents = 256

// Event is one entry in a flight recorder: a timestamped, structured
// observation from inside a running solve (a phase ending, a solver
// progress tick, a bound update, the size of a constructed CNF).
type Event struct {
	Time time.Time
	// Kind groups events for filtering: "phase", "progress", "bound",
	// "cnf", "note".
	Kind string
	// Name refines the kind: the phase name, the MaxSAT algorithm, the
	// span-like label of the operation.
	Name  string
	Attrs []Attr
}

// FlightRecorder keeps a bounded ring of the most recent events of one
// solve, so that when the solve ends in an anomaly (timeout, exhausted
// budget, error, or a slow-query threshold) the last moments before
// death can be dumped without having recorded the full history. All
// methods are safe for concurrent use and nil-receiver-safe, so
// instrumentation points record unconditionally.
type FlightRecorder struct {
	mu    sync.Mutex
	buf   []Event
	next  int   // ring write cursor
	total int64 // events ever recorded
}

// NewFlightRecorder creates a recorder retaining the last capacity
// events (DefaultFlightEvents when capacity <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightEvents
	}
	return &FlightRecorder{buf: make([]Event, 0, capacity)}
}

// Record appends one event, evicting the oldest when the ring is full.
// Safe on a nil receiver (a no-op), so callers never test for enablement.
func (r *FlightRecorder) Record(kind, name string, attrs ...Attr) {
	if r == nil {
		return
	}
	ev := Event{Time: time.Now(), Kind: kind, Name: name, Attrs: attrs}
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.next] = ev
		r.next = (r.next + 1) % len(r.buf)
	}
	r.total++
	r.mu.Unlock()
}

// Events returns the retained events in chronological order.
func (r *FlightRecorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Total returns the number of events ever recorded (retained + evicted).
func (r *FlightRecorder) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

type flightCtxKey struct{}

// WithFlightRecorder installs the recorder in the context so solver
// internals (maxsat progress, core phases) can feed it. A nil recorder
// returns the context unchanged.
func WithFlightRecorder(ctx context.Context, r *FlightRecorder) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, flightCtxKey{}, r)
}

// FlightRecorderFrom returns the recorder installed in the context, or
// nil.
func FlightRecorderFrom(ctx context.Context) *FlightRecorder {
	r, _ := ctx.Value(flightCtxKey{}).(*FlightRecorder)
	return r
}

// BundleEvent is one flight-recorder event in the dump bundle, with the
// timestamp rebased to microseconds since the solve started and the
// attributes flattened to a JSON object.
type BundleEvent struct {
	TimeUS float64        `json:"t_us"`
	Kind   string         `json:"kind"`
	Name   string         `json:"name"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// Bundle is the self-contained JSON dump of one anomalous solve: why it
// was dumped, the call's wide event (its journal line: identity, error,
// timings and counters), what the solver was doing (the flight-recorder
// ring), and the resource deltas. It is the post-mortem counterpart of
// the live /debug/trace endpoint: everything needed to diagnose the
// anomaly without rerunning the query.
type Bundle struct {
	Version int `json:"version"`
	// Reason is "timeout", "budget", "error", or "slow" (the journal
	// line's anomaly).
	Reason string `json:"reason"`
	// Journal is the call's journal entry — the same wide event the
	// journal appends, apart from its FlightBundle path, which only
	// exists once the bundle is written.
	Journal JournalEntry `json:"journal"`
	// Events is the flight-recorder ring in chronological order, with
	// times relative to Journal.Time; DroppedEvents counts earlier events
	// evicted from the ring.
	Events        []BundleEvent `json:"events"`
	DroppedEvents int64         `json:"dropped_events"`
	// Resources is the whole-call resource delta.
	Resources ResourceDelta `json:"resources"`
	// File is the path this bundle was dumped to; DumpDir fills it in
	// before writing so the journal line (and the hook's caller) can
	// reference the bundle on disk.
	File string `json:"file,omitempty"`
}

// BundleVersion is the schema version stamped on produced bundles.
const BundleVersion = 2

// NewBundle assembles the dump bundle of the call the journal entry
// describes, from the recorder's current ring. The recorder may be nil
// (the bundle then carries no events).
func NewBundle(entry JournalEntry, rec *FlightRecorder, res ResourceDelta) *Bundle {
	b := &Bundle{
		Version:   BundleVersion,
		Reason:    entry.Anomaly,
		Journal:   entry,
		Resources: res,
	}
	events := rec.Events()
	b.Events = make([]BundleEvent, len(events))
	for i, ev := range events {
		be := BundleEvent{
			TimeUS: float64(ev.Time.Sub(entry.Time)) / float64(time.Microsecond),
			Kind:   ev.Kind,
			Name:   ev.Name,
		}
		if len(ev.Attrs) > 0 {
			be.Attrs = make(map[string]any, len(ev.Attrs))
			for _, a := range ev.Attrs {
				if a.IsInt {
					be.Attrs[a.Key] = a.Int
				} else {
					be.Attrs[a.Key] = a.Str
				}
			}
		}
		b.Events[i] = be
	}
	if d := rec.Total() - int64(len(events)); d > 0 {
		b.DroppedEvents = d
	}
	return b
}

// Write renders the bundle as indented JSON.
func (b *Bundle) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// ReadBundle decodes a bundle written by Write (the round-trip contract
// asserted by the decoder tests).
func ReadBundle(r io.Reader) (*Bundle, error) {
	var b Bundle
	dec := json.NewDecoder(r)
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("obsv: decoding flight bundle: %w", err)
	}
	if b.Version != BundleVersion {
		return nil, fmt.Errorf("obsv: flight bundle version %d, want %d", b.Version, BundleVersion)
	}
	return &b, nil
}

// dumpSeq disambiguates bundle filenames produced within one timestamp
// granule.
var dumpSeq atomic.Int64

// DumpDir returns an anomaly sink that writes each bundle to its own
// flight-<stamp>-<seq>-<reason>.json file under dir (created on first
// dump). Write errors are reported on stderr rather than returned: the
// dump path runs after the solve has already failed, and must never mask
// the original error.
func DumpDir(dir string) func(*Bundle) {
	return func(b *Bundle) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "obsv: flight dump:", err)
			return
		}
		name := fmt.Sprintf("flight-%s-%03d-%s.json",
			time.Now().UTC().Format("20060102T150405"), dumpSeq.Add(1), b.Reason)
		path := filepath.Join(dir, name)
		b.File = path // journal lines reference the bundle by this path
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "obsv: flight dump:", err)
			return
		}
		err = b.Write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "obsv: flight dump:", err)
		}
	}
}
