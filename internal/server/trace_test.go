package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"aggcavsat"
	"aggcavsat/internal/obsv"
)

// TestTraceIdentityEndToEnd pins the request-correlation contract: the
// caller's traceparent trace id must come back in the Traceparent
// response header and the JSON body, and the same id must be stamped on
// the journal line, the explain report, and the flight bundle of the
// solve it triggered — one id to grep across every artifact.
func TestTraceIdentityEndToEnd(t *testing.T) {
	j := obsv.NewJournal(io.Discard, 128)
	defer j.Close()
	tracer := obsv.NewTracer()

	var mu sync.Mutex
	var bundles []*aggcavsat.FlightBundle

	srv := New(Config{Metrics: obsv.NewRegistry(), Journal: j, Tracer: tracer, TenantOptions: aggcavsat.Options{
		Explain:   true,
		SlowQuery: time.Nanosecond, // every solve is "slow" → bundle dumped
		OnAnomaly: func(b *aggcavsat.FlightBundle) {
			mu.Lock()
			bundles = append(bundles, b)
			mu.Unlock()
		},
	}})
	if _, err := srv.AttachDir("bank", writeFixture(t)); err != nil {
		t.Fatal(err)
	}
	var results []*aggcavsat.Result
	inner := srv.exec
	srv.exec = func(ctx context.Context, tn *Tenant, req *QueryRequest) (*aggcavsat.Result, error) {
		res, err := inner(ctx, tn, req)
		mu.Lock()
		results = append(results, res)
		mu.Unlock()
		return res, err
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const wantTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	const caller = "00-" + wantTrace + "-00f067aa0ba902b7-01"
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/query?q="+
		"SELECT+SUM(BAL)+FROM+Acc", nil)
	req.Header.Set("traceparent", caller)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}

	// 1. Response header: same trace id, the server's own span id.
	hdr := resp.Header.Get("Traceparent")
	tc, err := obsv.ParseTraceparent(hdr)
	if err != nil {
		t.Fatalf("response Traceparent %q: %v", hdr, err)
	}
	if tc.TraceID.String() != wantTrace {
		t.Errorf("header trace id = %s, want %s", tc.TraceID, wantTrace)
	}
	if tc.SpanID.String() == "00f067aa0ba902b7" {
		t.Error("header parent-id echoes the caller's span instead of the server root span")
	}

	// 2. JSON body.
	var out QueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.TraceID != wantTrace {
		t.Errorf("body trace_id = %q, want %s", out.TraceID, wantTrace)
	}

	// 3. Journal line of the solve.
	entries := j.Tail(8)
	if len(entries) == 0 {
		t.Fatal("no journal entries")
	}
	last := entries[len(entries)-1]
	if last.TraceID != wantTrace {
		t.Errorf("journal trace_id = %q, want %s", last.TraceID, wantTrace)
	}

	// 4. Explain report of the solve.
	mu.Lock()
	defer mu.Unlock()
	if len(results) != 1 || len(results[0].Explains) == 0 {
		t.Fatalf("captured %d results", len(results))
	}
	if got := results[0].Explains[0].TraceID; got != wantTrace {
		t.Errorf("explain trace_id = %q, want %s", got, wantTrace)
	}

	// 5. Flight bundle of the (forced-slow) solve.
	if len(bundles) != 1 {
		t.Fatalf("OnAnomaly fired %d times, want 1", len(bundles))
	}
	if bundles[0].Journal.TraceID != wantTrace {
		t.Errorf("bundle trace_id = %q, want %s", bundles[0].Journal.TraceID, wantTrace)
	}

	// 6. The per-request trace was retained ("slow" SLO breach is
	// impossible here — the request is fast — but outcome-based and
	// latency-based retention both funnel through the same store;
	// verify via the process tracer absorb instead: the global tracer
	// now holds the request's spans.)
	if tracer.Len() == 0 {
		t.Error("process tracer absorbed no spans from the request")
	}
}

// TestTraceMintedWhenHeaderMissingOrMalformed checks the W3C restart
// rule: no traceparent, or a malformed one, yields a fresh valid trace
// id rather than an error or an all-zero id.
func TestTraceMintedWhenHeaderMissingOrMalformed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	seen := map[string]bool{}
	for _, hdr := range []string{"", "garbage", "00-0000-bad-ff"} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/query?q=SELECT+SUM(BAL)+FROM+Acc", nil)
		if hdr != "" {
			req.Header.Set("traceparent", hdr)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query with traceparent %q: %d %s", hdr, resp.StatusCode, body)
		}
		var out QueryResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if len(out.TraceID) != 32 || out.TraceID == strings.Repeat("0", 32) {
			t.Fatalf("minted trace id %q invalid", out.TraceID)
		}
		if seen[out.TraceID] {
			t.Fatalf("trace id %s repeated across requests", out.TraceID)
		}
		seen[out.TraceID] = true
	}
}

// TestTailRetentionAndSLOEndpoint drives error and slow outcomes
// through the server and checks the retention plane: the traces appear
// under /debug/trace, /debug/slo reports attainment consistent with the
// labeled families, and /healthz carries the instance count.
func TestTailRetentionAndSLOEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{Journal: obsv.NewJournal(io.Discard, 16)})

	// One ok request, one bad-query error.
	resp, body := postQuery(t, ts.URL, &QueryRequest{SQL: sumQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ok query: %d %s", resp.StatusCode, body)
	}
	resp, _ = postQuery(t, ts.URL, &QueryRequest{SQL: "SELECT nonsense"})
	if resp.StatusCode == http.StatusOK {
		t.Fatal("bad query succeeded")
	}

	// The errored request must be retained with reason "error".
	list := srv.traces.List()
	if len(list) != 1 || list[0].Reason != "error" {
		t.Fatalf("retained = %+v, want one 'error' trace", list)
	}
	id := list[0].TraceID.String()

	// /debug/trace?trace=<id> serves the retained span tree.
	tr, err := http.Get(ts.URL + "/debug/trace?trace=" + id)
	if err != nil {
		t.Fatal(err)
	}
	treeBody, _ := io.ReadAll(tr.Body)
	tr.Body.Close()
	if tr.StatusCode != http.StatusOK || !strings.Contains(string(treeBody), "trace "+id) {
		t.Fatalf("/debug/trace?trace=%s: %d %s", id, tr.StatusCode, treeBody)
	}
	if !strings.Contains(string(treeBody), "server.request") {
		t.Fatalf("retained tree missing the root span:\n%s", treeBody)
	}

	// /debug/trace?list=1 lists it.
	lr, err := http.Get(ts.URL + "/debug/trace?list=1")
	if err != nil {
		t.Fatal(err)
	}
	listBody, _ := io.ReadAll(lr.Body)
	lr.Body.Close()
	if !strings.Contains(string(listBody), id) {
		t.Fatalf("/debug/trace?list=1 missing %s:\n%s", id, listBody)
	}

	// /debug/slo: availability attainment is 1 ok of 2 total = 0.5 and
	// must reconcile with the labeled family sums.
	sr, err := http.Get(ts.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	var rep obsv.SLOReport
	if err := json.NewDecoder(sr.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if len(rep.Objectives) != 2 {
		t.Fatalf("objectives = %d", len(rep.Objectives))
	}
	avail := rep.Objectives[0]
	if avail.Total != 2 || avail.Good != 1 {
		t.Fatalf("availability %d/%d, want 1/2", avail.Good, avail.Total)
	}
	counts := srv.sloCounts()
	if counts.Total != avail.Total || counts.Good != avail.Good {
		t.Fatalf("/debug/slo (%d/%d) does not reconcile with the labeled families (%d/%d)",
			avail.Good, avail.Total, counts.Good, counts.Total)
	}

	// The labeled family carries the per-outcome split.
	isOutcome := func(want string) func([]string) bool {
		return func(values []string) bool { return values[2] == want }
	}
	if ok := srv.requests.Sum(isOutcome("ok")); ok != 1 {
		t.Errorf(`outcome="ok" sum = %d, want 1`, ok)
	}
	if errs := srv.requests.Sum(isOutcome("error")); errs != 1 {
		t.Errorf(`outcome="error" sum = %d, want 1`, errs)
	}

	// /healthz: instance count and journal counters.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		UptimeS        float64        `json:"uptime_s"`
		JournalDropped *int64         `json:"journal_dropped"`
		Extra          map[string]any `json:"extra"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if health.Extra["instances"] != float64(1) {
		t.Errorf("healthz instances = %v, want 1", health.Extra["instances"])
	}
	if health.JournalDropped == nil || *health.JournalDropped != 0 {
		t.Errorf("healthz journal_dropped = %v, want 0", health.JournalDropped)
	}
}

// TestClientPropagatesTraceparent checks the client side of the
// contract: Query sends a traceparent (minted or from the context) and
// the response's trace id matches it.
func TestClientPropagatesTraceparent(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	c := NewClient(ts.URL)

	// Explicit context identity wins.
	tc := obsv.NewTraceContext()
	ctx := obsv.WithTraceContext(context.Background(), tc)
	out, err := c.Query(ctx, &QueryRequest{SQL: sumQuery})
	if err != nil {
		t.Fatal(err)
	}
	if out.TraceID != tc.TraceID.String() {
		t.Fatalf("server trace id = %s, want the context's %s", out.TraceID, tc.TraceID)
	}

	// Without one, the client mints a fresh id per request.
	out2, err := c.Query(context.Background(), &QueryRequest{SQL: sumQuery, Label: "uncached", TimeoutMS: 9999})
	if err != nil {
		t.Fatal(err)
	}
	if len(out2.TraceID) != 32 || out2.TraceID == out.TraceID {
		t.Fatalf("minted trace id %q invalid or reused", out2.TraceID)
	}
}
