package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aggcavsat"
	"aggcavsat/internal/db"
	"aggcavsat/internal/obsv"
	"aggcavsat/internal/schemafile"
)

// writeFixture materializes a small inconsistent bank instance as a
// schema.txt + CSV directory (account A2 violates its key).
func writeFixture(t testing.TB) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"schema.txt": "relation Acc (AID:string CITY:string BAL:int) key AID\n",
		"acc.csv":    "AID,CITY,BAL\nA1,LA,100\nA2,LA,50\nA2,SF,70\nA3,SJ,30\n",
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// newTestServer boots a Server over the fixture with its handler on an
// httptest listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	if _, err := srv.AttachDir("bank", writeFixture(t)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// postQuery issues one POST /query and decodes either envelope.
func postQuery(t *testing.T, url string, req *QueryRequest) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

const sumQuery = "SELECT SUM(BAL) FROM Acc"

func TestQueryAndResultCache(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	var solves atomic.Int64
	inner := srv.exec
	srv.exec = func(ctx context.Context, tn *Tenant, req *QueryRequest) (*aggcavsat.Result, error) {
		solves.Add(1)
		return inner(ctx, tn, req)
	}

	resp, body := postQuery(t, ts.URL, &QueryRequest{SQL: sumQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first query: %d %s", resp.StatusCode, body)
	}
	var first QueryResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first answer claims cached")
	}
	if first.Instance != "bank" || first.Version == 0 {
		t.Errorf("instance/version = %q/%d", first.Instance, first.Version)
	}
	// Consistent part: A1=100, A3=30; A2 contributes 50 or 70.
	if want := "[180, 200]"; len(first.Rows) != 1 || first.Rows[0].Ranges[0].Text != want {
		t.Fatalf("rows = %s", body)
	}

	// Same statement, reformatted: must hit the cache, skip the engine,
	// and carry the identical digest.
	resp, body = postQuery(t, ts.URL, &QueryRequest{SQL: "SELECT  SUM(BAL)\nFROM Acc"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second query: %d %s", resp.StatusCode, body)
	}
	var second QueryResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("second answer not served from cache")
	}
	if second.Digest != first.Digest {
		t.Errorf("digest drifted: %s vs %s", second.Digest, first.Digest)
	}
	if n := solves.Load(); n != 1 {
		t.Errorf("engine ran %d times, want 1", n)
	}
	reg := srv.cfg.Metrics
	if v := reg.Counter(MetricCacheHit).Value(); v != 1 {
		t.Errorf("cache hits = %d, want 1", v)
	}
	if v := reg.Counter(MetricCacheMiss).Value(); v != 1 {
		t.Errorf("cache misses = %d, want 1", v)
	}
}

func TestShedReturns429(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: -1})
	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	srv.exec = func(ctx context.Context, tn *Tenant, req *QueryRequest) (*aggcavsat.Result, error) {
		once.Do(func() { close(entered) })
		<-release
		return &aggcavsat.Result{}, nil
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, _ := postQuery(t, ts.URL, &QueryRequest{SQL: "SELECT COUNT(BAL) FROM Acc", Label: "wedged"})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("wedged query finished %d, want 200", resp.StatusCode)
		}
	}()
	<-entered

	// Distinct SQL so the request reaches the gate instead of
	// coalescing with the wedged solve.
	resp, body := postQuery(t, ts.URL, &QueryRequest{SQL: sumQuery})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d %s, want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	var env ErrorResponse
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Code != CodeOverloaded || env.RetryAfterMS != 1000 {
		t.Errorf("envelope = %+v", env)
	}
	if v := outcomeCount(srv, "shed"); v != 1 {
		t.Errorf(`outcome="shed" requests = %d, want 1`, v)
	}

	close(release)
	wg.Wait()
}

// requestCount totals the request-duration observations — one per
// request — over every series whose (tenant, route, outcome) values pass
// keep (nil keeps all).
func requestCount(srv *Server, keep func(values []string) bool) int64 {
	var n int64
	for _, s := range srv.duration.Series() {
		if keep == nil || keep(s.Values) {
			n += s.Count
		}
	}
	return n
}

// outcomeCount counts the requests with the given outcome label.
func outcomeCount(srv *Server, outcome string) int64 {
	return requestCount(srv, func(values []string) bool { return values[2] == outcome })
}

func TestQueueWaitExpiresInto429(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 1, QueueWait: 30 * time.Millisecond})
	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	srv.exec = func(ctx context.Context, tn *Tenant, req *QueryRequest) (*aggcavsat.Result, error) {
		once.Do(func() { close(entered) })
		<-release
		return &aggcavsat.Result{}, nil
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postQuery(t, ts.URL, &QueryRequest{SQL: "SELECT COUNT(BAL) FROM Acc"})
	}()
	<-entered

	start := time.Now()
	resp, body := postQuery(t, ts.URL, &QueryRequest{SQL: sumQuery})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d %s, want 429", resp.StatusCode, body)
	}
	if waited := time.Since(start); waited < 25*time.Millisecond {
		t.Errorf("shed after %v, want a full queue wait", waited)
	}
	close(release)
	wg.Wait()
}

func TestDeadlineReturnsTypedTimeout(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	srv.exec = func(ctx context.Context, tn *Tenant, req *QueryRequest) (*aggcavsat.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}

	resp, body := postQuery(t, ts.URL, &QueryRequest{SQL: sumQuery, TimeoutMS: 30})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d %s, want 504", resp.StatusCode, body)
	}
	var env ErrorResponse
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Code != CodeTimeout {
		t.Errorf("code = %q, want %q", env.Code, CodeTimeout)
	}
	if v := outcomeCount(srv, "timeout"); v != 1 {
		t.Errorf(`outcome="timeout" requests = %d, want 1`, v)
	}
	// Timeouts are never cached: the next request solves again.
	srv.exec = srv.runQuery
	resp, body = postQuery(t, ts.URL, &QueryRequest{SQL: sumQuery})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after timeout: %d %s", resp.StatusCode, body)
	}
}

func TestServedAnswersMatchDirectExecution(t *testing.T) {
	dir := writeFixture(t)
	srv := New(Config{})
	if _, err := srv.AttachDir("bank", dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// An independent in-process load of the same directory must produce
	// byte-identical digests for every statement the server answers.
	sys, _, _, _, err := LoadTenantDir(dir, aggcavsat.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		sumQuery,
		"SELECT COUNT(BAL) FROM Acc",
		"SELECT MIN(BAL) FROM Acc",
		"SELECT CITY, MAX(BAL) FROM Acc GROUP BY CITY",
	} {
		resp, body := postQuery(t, ts.URL, &QueryRequest{SQL: sql})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", sql, resp.StatusCode, body)
		}
		var served QueryResponse
		if err := json.Unmarshal(body, &served); err != nil {
			t.Fatal(err)
		}
		res, err := sys.Query(sql)
		if err != nil {
			t.Fatalf("%s: direct: %v", sql, err)
		}
		direct := BuildResponse(res)
		if served.Digest != direct.Digest {
			t.Errorf("%s: served digest %s != direct %s", sql, served.Digest, direct.Digest)
		}
	}
}

func TestAdminInstancesAndCacheInvalidation(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/admin/instances")
	if err != nil {
		t.Fatal(err)
	}
	var infos []TenantInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0].Name != "bank" || infos[0].Mode != "keys" || infos[0].Facts != 4 {
		t.Fatalf("instances = %+v", infos)
	}

	_, body := postQuery(t, ts.URL, &QueryRequest{SQL: sumQuery})
	var first QueryResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}

	// Hot re-attach under the same name: version bumps, so the cached
	// answer for the old version is unreachable.
	attach, _ := json.Marshal(map[string]string{"name": "bank", "dir": writeFixture(t)})
	resp, err = http.Post(ts.URL+"/admin/instances", "application/json", bytes.NewReader(attach))
	if err != nil {
		t.Fatal(err)
	}
	var info TenantInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info.Version <= first.Version {
		t.Fatalf("re-attach version %d, want > %d", info.Version, first.Version)
	}
	// The replaced version's answers left the cache with it.
	if n, b := srv.cache.Len(), srv.cfg.Metrics.Gauge(MetricCacheBytes).Value(); n != 0 || b != 0 {
		t.Errorf("after re-attach the cache holds %d answers, gauge %d bytes", n, b)
	}

	_, body = postQuery(t, ts.URL, &QueryRequest{SQL: sumQuery})
	var second QueryResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if second.Cached {
		t.Error("answer served from the previous instance version's cache")
	}
	if second.Version != info.Version {
		t.Errorf("answer version %d, want %d", second.Version, info.Version)
	}
	if v := srv.cfg.Metrics.Gauge(MetricTenants).Value(); v != 1 {
		t.Errorf("instances gauge = %d, want 1", v)
	}
}

// TestHotAttachUsesTenantOptions pins that a tenant attached through
// POST /admin/instances is built with the server's tenant options: the
// journal line of a query on the hot-attached tenant carries the
// configured worker-pool size, not the GOMAXPROCS default.
func TestHotAttachUsesTenantOptions(t *testing.T) {
	var buf bytes.Buffer
	j := obsv.NewJournal(&buf, 16)
	srv := New(Config{Journal: j, TenantOptions: aggcavsat.Options{Parallelism: 3}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	attach, _ := json.Marshal(map[string]string{"name": "hot", "dir": writeFixture(t)})
	resp, err := http.Post(ts.URL+"/admin/instances", "application/json", bytes.NewReader(attach))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("attach status = %d", resp.StatusCode)
	}
	if resp, body := postQuery(t, ts.URL, &QueryRequest{Instance: "hot", SQL: sumQuery}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	lines, err := obsv.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 {
		t.Fatalf("journal lines = %d, want 1 from the hot-attached tenant", len(lines))
	}
	if got := lines[0].Options.Parallelism; got != 3 {
		t.Errorf("hot tenant's journal parallel = %d, want 3", got)
	}
}

func TestErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name   string
		req    *QueryRequest
		status int
		code   string
	}{
		{"unknown instance", &QueryRequest{Instance: "nope", SQL: sumQuery}, http.StatusNotFound, CodeUnknownInstance},
		{"bad sql", &QueryRequest{SQL: "DELETE FROM Acc"}, http.StatusBadRequest, CodeBadQuery},
		{"empty sql", &QueryRequest{SQL: "  "}, http.StatusBadRequest, CodeBadRequest},
	} {
		resp, body := postQuery(t, ts.URL, tc.req)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d %s, want %d", tc.name, resp.StatusCode, body, tc.status)
			continue
		}
		var env ErrorResponse
		if err := json.Unmarshal(body, &env); err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if env.Code != tc.code {
			t.Errorf("%s: code = %q, want %q", tc.name, env.Code, tc.code)
		}
	}
}

func TestGetQueryAndDebugPlane(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/query?q=" + strings.ReplaceAll(sumQuery, " ", "+") + "&label=smoke")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /query = %d", resp.StatusCode)
	}

	metrics, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(metrics.Body)
	for _, want := range []string{
		MetricRequestDuration + "_count{", obsv.MetricEngineCallSeconds + "_count{",
		obsv.MetricPhaseSecondsPrefix + "witness_sum", MetricInflight, MetricCacheHit,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	// One series per fact: the request and call counts are the _count
	// of their duration histograms, a phase's time the _sum of its
	// histogram, and a call's heap and constraint build its journal
	// line's.
	for _, gone := range []string{
		"cavsatd_requests_total", "aggcavsat_calls_total",
		"aggcavsat_witness_ns_total", "aggcavsat_encode_ns_total", "aggcavsat_solve_ns_total",
		"aggcavsat_rewrite_ns_total", "aggcavsat_constraint_ns", "aggcavsat_heap_bytes",
	} {
		if strings.Contains(buf.String(), gone) {
			t.Errorf("/metrics carries the deleted family %s", gone)
		}
	}

	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Errorf("/healthz = %d", health.StatusCode)
	}
}

func TestJournalCarriesTenantLabel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := obsv.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Journal: j})

	resp, body := postQuery(t, ts.URL, &QueryRequest{SQL: sumQuery, Label: "Q-sum"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := obsv.ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no journal entries written")
	}
	if got := entries[0].Query; got != "bank/Q-sum" {
		t.Errorf("journal label = %q, want %q", got, "bank/Q-sum")
	}
}

func TestCoalescedFollowersShareOneSolve(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInFlight: 2})
	var solves atomic.Int64
	release := make(chan struct{})
	inner := srv.exec
	srv.exec = func(ctx context.Context, tn *Tenant, req *QueryRequest) (*aggcavsat.Result, error) {
		solves.Add(1)
		<-release
		return inner(ctx, tn, req)
	}

	const followers = 4
	var wg sync.WaitGroup
	digests := make([]string, followers)
	routes := make([]string, followers)
	cached := make([]bool, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postQuery(t, ts.URL, &QueryRequest{SQL: sumQuery})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("follower %d: %d %s", i, resp.StatusCode, body)
				return
			}
			var out QueryResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Errorf("follower %d: %v", i, err)
				return
			}
			digests[i], routes[i], cached[i] = out.Digest, out.Route, out.Cached
		}(i)
	}
	// Wait until the leader is wedged inside exec and every follower
	// has joined its flight, then release; the followers must all ride
	// its solve.
	coalesced := srv.cfg.Metrics.Counter(MetricCoalesced)
	deadline := time.Now().Add(10 * time.Second)
	for solves.Load() == 0 || coalesced.Value() < followers-1 {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("%d solves, %d followers joined the flight", solves.Load(), coalesced.Value())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := solves.Load(); n != 1 {
		t.Errorf("engine ran %d times for %d identical queries, want 1", n, followers)
	}
	for i := 1; i < followers; i++ {
		if digests[i] != digests[0] {
			t.Errorf("follower %d digest %s != %s", i, digests[i], digests[0])
		}
	}
	if v := srv.cfg.Metrics.Counter(MetricCoalesced).Value(); v == 0 {
		t.Error("coalesce counter stayed zero")
	}
	// A follower rode the leader's solve; no cache entry served it, so
	// it answers with the leader's route and is not counted as a hit.
	for i := range routes {
		if routes[i] != "sat" || cached[i] {
			t.Errorf("follower %d: route %q cached %v, want the leader's sat route, not cached", i, routes[i], cached[i])
		}
	}
	hits := srv.cfg.Metrics.Counter(MetricCacheHit).Value()
	if n := requestCount(srv, func(values []string) bool { return values[1] == "cache" }); n != hits {
		t.Errorf("route=\"cache\" requests = %d, cache hits = %d", n, hits)
	}
}

// TestRouteCountersSumToServedResponses pins the service-level metrics
// contract on the one request record: every /query response lands in
// exactly one cavsatd_request_duration_seconds series. A fresh answer
// counts under the route that computed it, a cache hit under route
// "cache", and a failed request under route "none". An auto tenant
// serves every query on the solver route; only a force-rewrite tenant
// takes the rewrite route. The test then drives every outcome — ok
// solve, cache hit, 400, 404, 429 shed and 504 timeout — and reconciles
// the responses seen with the request-duration _count series and
// /debug/slo.
func TestRouteCountersSumToServedResponses(t *testing.T) {
	query := func(url, sql string) QueryResponse {
		t.Helper()
		resp, body := postQuery(t, url, &QueryRequest{SQL: sql})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", sql, resp.StatusCode, body)
		}
		var out QueryResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	// served sums the ok responses per route label.
	served := func(srv *Server, route string) int64 {
		return requestCount(srv, func(values []string) bool {
			return values[1] == route && values[2] == "ok"
		})
	}

	rwSrv, rwTS := newTestServer(t, Config{Planner: aggcavsat.PlannerForceRewrite})
	if out := query(rwTS.URL, sumQuery); out.Route != "rewrite" || out.Cached {
		t.Fatalf("force-rewrite response route %q cached %v, want fresh rewrite", out.Route, out.Cached)
	}
	// Outside the rewriting: force-rewrite refuses it, and counts no route.
	if resp, _ := postQuery(t, rwTS.URL, &QueryRequest{SQL: "SELECT COUNT(DISTINCT BAL) FROM Acc"}); resp.StatusCode == http.StatusOK {
		t.Fatal("force-rewrite served a query outside the rewriting")
	}
	if rw, sat := served(rwSrv, "rewrite"), served(rwSrv, "sat"); rw != 1 || sat != 0 {
		t.Fatalf("force-rewrite tenant: rewrite=%d sat=%d, want 1 and 0", rw, sat)
	}

	srv, ts := newTestServer(t, Config{Planner: aggcavsat.PlannerAuto, MaxInFlight: 1, MaxQueue: -1})
	first := query(ts.URL, sumQuery) // in the rewriting's class, served by the solver
	if first.Route != "sat" || first.Cached {
		t.Fatalf("first response route %q cached %v, want fresh sat", first.Route, first.Cached)
	}
	if cached := query(ts.URL, sumQuery); !cached.Cached || cached.Route != "sat" {
		t.Fatalf("cached response route %q cached %v", cached.Route, cached.Cached)
	}
	if out := query(ts.URL, "SELECT COUNT(DISTINCT BAL) FROM Acc"); out.Route != "sat" {
		t.Fatalf("DISTINCT routed %q, want sat", out.Route)
	}
	// A failed request counts no route.
	if resp, _ := postQuery(t, ts.URL, &QueryRequest{SQL: "DELETE FROM Acc"}); resp.StatusCode == http.StatusOK {
		t.Fatal("invalid SQL served")
	}
	if rw, sat, cache := served(srv, "rewrite"), served(srv, "sat"), served(srv, "cache"); rw != 0 || sat != 2 || cache != 1 {
		t.Fatalf("auto tenant: rewrite=%d sat=%d cache=%d, want 0, 2 and 1 (3 served responses)", rw, sat, cache)
	}
	if failed := requestCount(srv, func(v []string) bool { return v[1] == "none" }); failed != 1 {
		t.Fatalf(`route="none" requests = %d, want the 1 failed request`, failed)
	}

	// The tenant listing advertises the serving policy.
	resp, err := http.Get(ts.URL + "/admin/instances")
	if err != nil {
		t.Fatal(err)
	}
	var infos []TenantInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0].Planner != "auto" {
		t.Fatalf("instances = %+v", infos)
	}

	// Every outcome, counted by the responses the client saw: the
	// requests above (3 ok, 1 bad query) plus a 404, a 429 and a 504.
	seen := map[string]int64{"ok": 3, "error": 1}
	outcome := map[int]string{
		http.StatusOK: "ok", http.StatusBadRequest: "error", http.StatusNotFound: "error",
		http.StatusTooManyRequests: "shed", http.StatusGatewayTimeout: "timeout",
	}
	send := func(req *QueryRequest, want int) {
		t.Helper()
		resp, body := postQuery(t, ts.URL, req)
		if resp.StatusCode != want {
			t.Errorf("%s: %d %s, want %d", req.SQL, resp.StatusCode, body, want)
		}
		seen[outcome[resp.StatusCode]]++
	}
	release, entered := make(chan struct{}), make(chan struct{})
	inner := srv.exec
	srv.exec = func(ctx context.Context, tn *Tenant, req *QueryRequest) (*aggcavsat.Result, error) {
		switch req.Label {
		case "wedged":
			close(entered)
			<-release
		case "timeout":
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return inner(ctx, tn, req)
	}
	send(&QueryRequest{Instance: "nope", SQL: sumQuery}, http.StatusNotFound)
	send(&QueryRequest{SQL: "SELECT MIN(BAL) FROM Acc", Label: "timeout", TimeoutMS: 20}, http.StatusGatewayTimeout)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		send(&QueryRequest{SQL: "SELECT COUNT(BAL) FROM Acc", Label: "wedged"}, http.StatusOK)
	}()
	<-entered
	send(&QueryRequest{SQL: "SELECT MAX(BAL) FROM Acc"}, http.StatusTooManyRequests) // the one slot is taken
	close(release)
	wg.Wait()

	isOutcome := func(want string) func([]string) bool {
		return func(values []string) bool { return values[2] == want }
	}
	var responses int64
	for _, o := range []string{"ok", "error", "shed", "timeout"} {
		if got := requestCount(srv, isOutcome(o)); got != seen[o] {
			t.Errorf(`outcome=%q requests = %d, want the %d responses seen`, o, got, seen[o])
		}
		responses += seen[o]
	}
	if total := requestCount(srv, nil); total != responses || total != 8 {
		t.Errorf("requests total = %d, want the %d responses seen (8)", total, responses)
	}

	// /debug/slo reads its totals from the same duration series the
	// registry snapshot (and so the /metrics scrape) holds.
	snap := srv.cfg.Metrics.Snapshot()
	var total, good, latOK int64
	slo := srv.cfg.SLOLatency.Seconds()
	for name, h := range snap.Histograms {
		if !strings.HasPrefix(name, MetricRequestDuration+"{") {
			continue
		}
		total += h.Count
		if !strings.Contains(name, `outcome="ok"`) {
			continue
		}
		good += h.Count
		for i, ub := range h.Buckets {
			if ub <= slo {
				latOK += h.Counts[i]
			}
		}
	}
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
		t.Fatalf("objectives = %+v", rep.Objectives)
	}
	if a := rep.Objectives[0]; a.Total != total || a.Good != good || total != responses {
		t.Errorf("/debug/slo availability %d/%d, families %d/%d, responses %d", a.Good, a.Total, good, total, responses)
	}
	if l := rep.Objectives[1]; l.Total != good || l.Good != latOK {
		t.Errorf("/debug/slo latency %d/%d, families %d/%d", l.Good, l.Total, latOK, good)
	}
}

// TestSnapshotTenantServing: a directory holding a columnar snapshot is
// served from the mmap'ed snapshot (the CSVs are deleted to prove it),
// answers match the CSV-backed tenant exactly, and the snapshot's
// content fingerprint reaches the tenant listing.
func TestSnapshotTenantServing(t *testing.T) {
	csvDir := writeFixture(t)

	// Build the snapshot from the CSV fixture, then strip the CSVs from
	// a second directory so only the snapshot (plus schema.txt for the
	// constraints) can serve it.
	f, err := os.Open(filepath.Join(csvDir, "schema.txt"))
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := schemafile.Read(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	in, err := db.LoadDir(parsed.Schema, csvDir)
	if err != nil {
		t.Fatal(err)
	}
	snapDir := t.TempDir()
	schemaBytes, err := os.ReadFile(filepath.Join(csvDir, "schema.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(snapDir, "schema.txt"), schemaBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveSnapshot(in, filepath.Join(snapDir, db.SnapshotFileName)); err != nil {
		t.Fatal(err)
	}

	srv := New(Config{})
	if _, err := srv.AttachDir("csv", csvDir); err != nil {
		t.Fatal(err)
	}
	tn, err := srv.AttachDir("snap", snapDir)
	if err != nil {
		t.Fatal(err)
	}
	if tn.DataVersion == 0 {
		t.Fatal("snapshot tenant has no data version")
	}
	if got := srv.tenants.byName["csv"].DataVersion; got != 0 {
		t.Fatalf("CSV tenant claims data version %x", got)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ask := func(instance string) *QueryResponse {
		resp, body := postQuery(t, ts.URL, &QueryRequest{Instance: instance, SQL: sumQuery})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", instance, resp.StatusCode, body)
		}
		var qr QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		return &qr
	}
	fromCSV, fromSnap := ask("csv"), ask("snap")
	if fromSnap.Digest != fromCSV.Digest {
		t.Fatalf("snapshot answer digest %s != CSV answer digest %s", fromSnap.Digest, fromCSV.Digest)
	}
	if len(fromSnap.Rows) != 1 || fromSnap.Rows[0].Ranges[0].Text != "[180, 200]" {
		t.Fatalf("snapshot rows = %+v", fromSnap.Rows)
	}

	// The listing advertises the snapshot fingerprint on the snapshot
	// tenant only.
	resp, err := http.Get(ts.URL + "/admin/instances")
	if err != nil {
		t.Fatal(err)
	}
	var infos []TenantInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	byName := map[string]TenantInfo{}
	for _, info := range infos {
		byName[info.Name] = info
	}
	if byName["snap"].DataVersion == "" {
		t.Fatal("snapshot tenant listing lacks data_version")
	}
	if byName["csv"].DataVersion != "" {
		t.Fatalf("CSV tenant listing has data_version %q", byName["csv"].DataVersion)
	}

	// A snapshot whose schema disagrees with schema.txt is refused.
	bad := t.TempDir()
	if err := os.WriteFile(filepath.Join(bad, "schema.txt"),
		[]byte("relation Acc (AID:string CITY:string) key AID\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bad, db.SnapshotFileName),
		mustReadFile(t, filepath.Join(snapDir, db.SnapshotFileName)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.AttachDir("bad", bad); err == nil {
		t.Fatal("attach with mismatched snapshot schema must fail")
	}
}

func mustReadFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
