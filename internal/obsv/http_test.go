package obsv

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("aggcavsat_sat_calls_total").Add(3)
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	_, sp := StartSpan(ctx, "query")
	sp.End()

	srv := httptest.NewServer(NewHandler(HandlerConfig{Registry: reg, Tracer: tr}))
	defer srv.Close()

	code, ct, body := get(t, srv, "/healthz")
	if code != http.StatusOK || ct != "application/json" || !strings.Contains(body, `"status":"ok"`) {
		t.Errorf("/healthz = %d %q %q", code, ct, body)
	}

	code, ct, body = get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics content-type = %q", ct)
	}
	for _, want := range []string{
		"aggcavsat_sat_calls_total 3",
		"obsv_spans_dropped_total 0",
		"obsv_spans_open 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	code, _, body = get(t, srv, "/debug/trace")
	if code != http.StatusOK || !strings.Contains(body, "query") {
		t.Errorf("/debug/trace = %d %q", code, body)
	}
	code, ct, body = get(t, srv, "/debug/trace?format=chrome")
	if code != http.StatusOK || ct != "application/json" || !strings.Contains(body, "traceEvents") {
		t.Errorf("/debug/trace?format=chrome = %d %q %q", code, ct, body)
	}
	code, _, _ = get(t, srv, "/debug/trace?format=bogus")
	if code != http.StatusBadRequest {
		t.Errorf("/debug/trace?format=bogus status = %d, want 400", code)
	}

	code, _, body = get(t, srv, "/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d", code)
	}
}

// TestDebugTraceBadID pins the /debug/trace?trace= validation: ids of
// any length other than 32 hex digits — in particular longer than 32,
// which once drove hex.Decode past the 16-byte TraceID array and
// panicked the handler — must come back as a clean 400.
func TestDebugTraceBadID(t *testing.T) {
	srv := httptest.NewServer(NewHandler(HandlerConfig{
		Tracer: NewTracer(),
		Traces: NewTraceStore(4),
	}))
	defer srv.Close()

	for _, id := range []string{
		"zz",
		strings.Repeat("ab", 15),       // 30 hex digits: too short
		strings.Repeat("ab", 17),       // 34 hex digits: too long (panicked before the length check)
		strings.Repeat("ab", 16) + "g", // 33 chars, trailing non-hex
		strings.Repeat("zz", 16),       // right length, not hex
	} {
		code, _, _ := get(t, srv, "/debug/trace?trace="+id)
		if code != http.StatusBadRequest {
			t.Errorf("/debug/trace?trace=%s status = %d, want 400", id, code)
		}
	}

	// A well-formed but unretained id is a 404, not a 400.
	code, _, _ := get(t, srv, "/debug/trace?trace="+strings.Repeat("ab", 16))
	if code != http.StatusNotFound {
		t.Errorf("/debug/trace with unretained id status = %d, want 404", code)
	}
}

func TestHandlerNoTracer(t *testing.T) {
	srv := httptest.NewServer(NewHandler(HandlerConfig{Registry: NewRegistry()}))
	defer srv.Close()
	if code, _, _ := get(t, srv, "/debug/trace"); code != http.StatusNotFound {
		t.Errorf("/debug/trace without a tracer = %d, want 404", code)
	}
	if code, _, _ := get(t, srv, "/metrics"); code != http.StatusOK {
		t.Errorf("/metrics without a tracer = %d, want 200", code)
	}
}

// TestConcurrentScrapes hammers /metrics and /debug/trace while other
// goroutines mutate the registry and tracer — the scenario the -race CI
// target guards: a live scrape during a run must not race with the
// instrumentation writes.
func TestConcurrentScrapes(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer()
	srv := httptest.NewServer(NewHandler(HandlerConfig{Registry: reg, Tracer: tr}))
	defer srv.Close()

	// Mutation volume is bounded (not run-until-stopped): an unthrottled
	// span producer fills the tracer ring with ~1M spans and every
	// /debug/trace scrape then serializes all of them, turning this test
	// into minutes of JSON encoding instead of a race probe.
	const iters = 2_000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			reg.Counter("aggcavsat_sat_calls_total").Add(1)
			reg.Gauge("aggcavsat_heap_bytes").Set(int64(i))
			reg.Histogram("aggcavsat_phase_seconds_solve", nil).Observe(0.001)
			runtime.Gosched()
		}
	}()
	go func() {
		defer wg.Done()
		ctx := WithTracer(context.Background(), tr)
		for i := 0; i < iters; i++ {
			c, sp := StartSpan(ctx, "query")
			_, inner := StartSpan(c, "sat.solve", Int64("conflicts", 1))
			inner.End()
			sp.End()
			runtime.Gosched()
		}
	}()

	for i := 0; i < 10; i++ {
		for _, path := range []string{"/metrics", "/debug/trace", "/debug/trace?format=chrome"} {
			code, _, _ := get(t, srv, path)
			if code != http.StatusOK {
				t.Errorf("%s during mutation = %d", path, code)
			}
		}
	}
	wg.Wait()
}

// TestHealthzFields decodes the /healthz payload and checks the
// build/runtime identity a dashboard needs to tell binaries apart.
func TestHealthzFields(t *testing.T) {
	srv := httptest.NewServer(NewHandler(HandlerConfig{}))
	defer srv.Close()
	code, ct, body := get(t, srv, "/healthz")
	if code != http.StatusOK || ct != "application/json" {
		t.Fatalf("/healthz = %d %q", code, ct)
	}
	var h struct {
		Status     string  `json:"status"`
		UptimeS    float64 `json:"uptime_s"`
		GoVersion  string  `json:"go_version"`
		GOMAXPROCS int     `json:"gomaxprocs"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q", h.Status)
	}
	if h.GoVersion != runtime.Version() {
		t.Errorf("go_version = %q, want %q", h.GoVersion, runtime.Version())
	}
	if h.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Errorf("gomaxprocs = %d", h.GOMAXPROCS)
	}
	if h.UptimeS < 0 {
		t.Errorf("uptime_s = %f", h.UptimeS)
	}
}

// TestDebugJournal covers the /debug/journal tail endpoint against a
// live journal: default window, explicit ?n, bad n, and the 404 when no
// journal is installed.
func TestDebugJournal(t *testing.T) {
	j := NewJournal(io.Discard, 0)
	defer j.Close()
	for i := 0; i < 40; i++ {
		j.Append(JournalEntry{Query: fmt.Sprintf("q%d", i)})
	}
	srv := httptest.NewServer(NewHandler(HandlerConfig{Registry: NewRegistry(), Journal: j}))
	defer srv.Close()

	code, ct, body := get(t, srv, "/debug/journal")
	if code != http.StatusOK || ct != "application/json" {
		t.Fatalf("/debug/journal = %d %q", code, ct)
	}
	var entries []JournalEntry
	if err := json.Unmarshal([]byte(body), &entries); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if len(entries) != 32 { // default window
		t.Errorf("default tail = %d entries, want 32", len(entries))
	}
	code, _, body = get(t, srv, "/debug/journal?n=2")
	if err := json.Unmarshal([]byte(body), &entries); err != nil || code != http.StatusOK {
		t.Fatalf("?n=2 = %d: %v", code, err)
	}
	if len(entries) != 2 || entries[1].Query != "q39" {
		t.Errorf("?n=2 tail = %+v", entries)
	}
	if code, _, _ := get(t, srv, "/debug/journal?n=zero"); code != http.StatusBadRequest {
		t.Errorf("?n=zero status = %d, want 400", code)
	}
	if code, _, _ := get(t, srv, "/debug/journal?n=-1"); code != http.StatusBadRequest {
		t.Errorf("?n=-1 status = %d, want 400", code)
	}

	// The journal's counters ride along on /metrics.
	_, _, body = get(t, srv, "/metrics")
	if !strings.Contains(body, MetricJournalWritten) {
		t.Errorf("/metrics missing %s:\n%s", MetricJournalWritten, body)
	}

	bare := httptest.NewServer(NewHandler(HandlerConfig{Registry: NewRegistry()}))
	defer bare.Close()
	if code, _, _ := get(t, bare, "/debug/journal"); code != http.StatusNotFound {
		t.Errorf("/debug/journal without a journal = %d, want 404", code)
	}
}
