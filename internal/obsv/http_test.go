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

// retainedWithSpan builds a retained trace whose tracer holds one ended
// span with the given name.
func retainedWithSpan(reason, name string) RetainedTrace {
	rt := retained(NewTraceID(), reason)
	_, sp := StartSpan(WithTracer(context.Background(), rt.Tracer), name)
	sp.End()
	return rt
}

func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("aggcavsat_sat_calls_total").Add(3)
	traces := NewTraceStore(4)
	rt := retainedWithSpan("slow", "query")
	traces.Keep(rt)
	id := rt.TraceID.String()

	srv := httptest.NewServer(NewHandler(HandlerConfig{Registry: reg, Traces: traces}))
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
	if !strings.Contains(body, "aggcavsat_sat_calls_total 3") {
		t.Errorf("/metrics missing the registry counter in:\n%s", body)
	}

	// With no trace id, /debug/trace serves the retained-trace index;
	// ?list=1 is the same index.
	for _, path := range []string{"/debug/trace", "/debug/trace?list=1"} {
		code, ct, body = get(t, srv, path)
		var index []struct {
			TraceID string `json:"trace_id"`
			Reason  string `json:"reason"`
			Spans   int    `json:"spans"`
		}
		if code != http.StatusOK || ct != "application/json" {
			t.Fatalf("%s = %d %q", path, code, ct)
		}
		if err := json.Unmarshal([]byte(body), &index); err != nil {
			t.Fatalf("%s: invalid JSON: %v\n%s", path, err, body)
		}
		if len(index) != 1 || index[0].TraceID != id || index[0].Reason != "slow" || index[0].Spans != 1 {
			t.Errorf("%s index = %+v, want the one retained trace", path, index)
		}
	}

	code, _, body = get(t, srv, "/debug/trace?trace="+id)
	if code != http.StatusOK || !strings.Contains(body, "trace "+id) || !strings.Contains(body, "query") {
		t.Errorf("/debug/trace?trace=<id> = %d %q", code, body)
	}
	code, ct, body = get(t, srv, "/debug/trace?trace="+id+"&format=chrome")
	if code != http.StatusOK || ct != "application/json" || !strings.Contains(body, "traceEvents") {
		t.Errorf("/debug/trace?format=chrome = %d %q %q", code, ct, body)
	}
	code, _, _ = get(t, srv, "/debug/trace?trace="+id+"&format=bogus")
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
	srv := httptest.NewServer(NewHandler(HandlerConfig{Traces: NewTraceStore(4)}))
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

// TestHandlerNoTracer: without a trace store /debug/trace is a 404 (the
// index and every id alike), while /metrics still serves.
func TestHandlerNoTracer(t *testing.T) {
	srv := httptest.NewServer(NewHandler(HandlerConfig{Registry: NewRegistry()}))
	defer srv.Close()
	for _, path := range []string{"/debug/trace", "/debug/trace?trace=" + strings.Repeat("ab", 16)} {
		if code, _, _ := get(t, srv, path); code != http.StatusNotFound {
			t.Errorf("%s without a trace store = %d, want 404", path, code)
		}
	}
	if code, _, _ := get(t, srv, "/metrics"); code != http.StatusOK {
		t.Errorf("/metrics without a trace store = %d, want 200", code)
	}
}

// TestConcurrentScrapes hammers /metrics, the /debug/trace index and a
// retained trace by id while other goroutines mutate the registry, keep
// traces into the store and record spans on a retained tracer
// — the scenario the -race CI target guards: a live scrape must not
// race with the instrumentation writes or the retention store.
func TestConcurrentScrapes(t *testing.T) {
	reg := NewRegistry()
	traces := NewTraceStore(8)
	live := retainedWithSpan("slow", "query")
	traces.Keep(live)
	srv := httptest.NewServer(NewHandler(HandlerConfig{Registry: reg, Traces: traces}))
	defer srv.Close()

	// Mutation volume is bounded (not run-until-stopped) so the live
	// tracer stays small enough for every scrape to render it quickly.
	const iters = 2_000
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			reg.Counter("aggcavsat_sat_calls_total").Add(1)
			reg.Gauge("aggcavsat_cnf_vars_max").Set(int64(i))
			reg.Histogram("aggcavsat_phase_seconds_solve", nil).Observe(0.001)
			runtime.Gosched()
		}
	}()
	go func() {
		defer wg.Done()
		// Seven more ids fill the store without evicting the live trace;
		// each Keep replaces one of them with a fresh tracer.
		ids := make([]TraceID, 7)
		for i := range ids {
			ids[i] = NewTraceID()
		}
		for i := 0; i < iters; i++ {
			rt := retainedWithSpan("slow", "server.request")
			rt.TraceID = ids[i%len(ids)]
			traces.Keep(rt)
			runtime.Gosched()
		}
	}()
	go func() {
		defer wg.Done()
		ctx := WithTracer(context.Background(), live.Tracer)
		for i := 0; i < iters/10; i++ {
			c, sp := StartSpan(ctx, "query")
			_, inner := StartSpan(c, "sat.solve", Int64("conflicts", 1))
			inner.End()
			sp.End()
			runtime.Gosched()
		}
	}()

	byID := "/debug/trace?trace=" + live.TraceID.String()
	for i := 0; i < 10; i++ {
		for _, path := range []string{"/metrics", "/debug/trace", byID, byID + "&format=chrome"} {
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

// TestDebugJournal: the journal file is the one copy of its lines, so
// the debug plane serves no journal tail — /debug/journal answers 404
// with a journal installed — while /healthz and /metrics carry the
// journal's written and dropped counts.
func TestDebugJournal(t *testing.T) {
	j := NewJournal(io.Discard, 0)
	for i := 0; i < 40; i++ {
		j.Append(JournalEntry{Query: fmt.Sprintf("q%d", i)})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(HandlerConfig{Registry: NewRegistry(), Journal: j}))
	defer srv.Close()

	for _, path := range []string{"/debug/journal", "/debug/journal?n=2"} {
		if code, _, _ := get(t, srv, path); code != http.StatusNotFound {
			t.Errorf("%s = %d, want 404", path, code)
		}
	}
	_, _, body := get(t, srv, "/metrics")
	for _, want := range []string{MetricJournalWritten + " 40", MetricJournalDropped + " 0"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	_, _, body = get(t, srv, "/healthz")
	var h healthInfo
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("invalid /healthz JSON: %v\n%s", err, body)
	}
	if h.JournalWritten == nil || *h.JournalWritten != 40 || h.JournalDropped == nil || *h.JournalDropped != 0 {
		t.Errorf("/healthz journal counts = %s, want 40 written, 0 dropped", body)
	}
}
