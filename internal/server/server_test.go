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
func writeFixture(t *testing.T) string {
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
	if _, err := srv.AttachDir("bank", writeFixture(t), aggcavsat.Options{}); err != nil {
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
	srv, ts := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: -1, RetryAfter: 2 * time.Second})
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
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
	var env ErrorResponse
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Code != CodeOverloaded || env.RetryAfterMS != 2000 {
		t.Errorf("envelope = %+v", env)
	}
	if v := outcomeCount(srv, "shed"); v != 1 {
		t.Errorf(`outcome="shed" requests = %d, want 1`, v)
	}

	close(release)
	wg.Wait()
}

// outcomeCount sums the labeled request counter over every series with
// the given outcome label.
func outcomeCount(srv *Server, outcome string) int64 {
	return srv.requests.Sum(func(values []string) bool { return values[2] == outcome })
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
	if _, err := srv.AttachDir("bank", dir, aggcavsat.Options{}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// An independent in-process load of the same directory must produce
	// byte-identical digests for every statement the server answers.
	sys, _, _, err := LoadTenantDir(dir, aggcavsat.Options{})
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
	for _, want := range []string{MetricRequests, MetricRequestDuration, MetricInflight, MetricCacheHit} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %s", want)
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
			digests[i] = out.Digest
		}(i)
	}
	// Wait until the leader is wedged inside exec, then release; the
	// followers must all ride its solve.
	for solves.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let followers reach the flight
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
}

// TestRouteCountersSumToServedResponses pins the service-level metrics
// contract: every 200 /query response — cache hits included — bumps
// exactly one cavsatd_route_total counter, cached answers count under
// the route that originally computed them, and non-200 responses count
// nothing.
func TestRouteCountersSumToServedResponses(t *testing.T) {
	srv, ts := newTestServer(t, Config{Planner: aggcavsat.PlannerAuto})
	served := 0
	query := func(sql string) QueryResponse {
		t.Helper()
		resp, body := postQuery(t, ts.URL, &QueryRequest{SQL: sql})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", sql, resp.StatusCode, body)
		}
		served++
		var out QueryResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	first := query(sumQuery) // single-relation SUM: the rewrite fast path
	if first.Route != "rewrite" || first.Cached {
		t.Fatalf("first response route %q cached %v, want fresh rewrite", first.Route, first.Cached)
	}
	cached := query(sumQuery) // cache hit keeps the original route
	if !cached.Cached || cached.Route != "rewrite" {
		t.Fatalf("cached response route %q cached %v", cached.Route, cached.Cached)
	}
	satOut := query("SELECT COUNT(DISTINCT BAL) FROM Acc") // outside the rewriting
	if satOut.Route != "sat" {
		t.Fatalf("DISTINCT routed %q, want sat", satOut.Route)
	}

	// A failed request counts no route.
	if resp, _ := postQuery(t, ts.URL, &QueryRequest{SQL: "DELETE FROM Acc"}); resp.StatusCode == http.StatusOK {
		t.Fatal("invalid SQL served")
	}

	reg := srv.cfg.Metrics
	rw := reg.Counter(MetricRouteRewrite).Value()
	sat := reg.Counter(MetricRouteSAT).Value()
	mixed := reg.Counter(MetricRouteMixed).Value()
	if rw+sat+mixed != int64(served) {
		t.Fatalf("route counters %d+%d+%d != %d served responses", rw, sat, mixed, served)
	}
	if rw != 2 || sat != 1 {
		t.Fatalf("rewrite=%d sat=%d, want 2 and 1", rw, sat)
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

	// /metrics exposes the family with one TYPE line and all three labels.
	metrics, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(metrics.Body)
	if got := strings.Count(buf.String(), "# TYPE cavsatd_route_total counter"); got != 1 {
		t.Errorf("cavsatd_route_total TYPE lines = %d, want 1", got)
	}
	for _, want := range []string{MetricRouteRewrite, MetricRouteSAT, MetricRouteMixed} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestSnapshotTenantServing: a directory holding a columnar snapshot is
// served from the mmap'ed snapshot (the CSVs are deleted to prove it),
// answers match the CSV-backed tenant exactly, and the snapshot's
// content fingerprint reaches the tenant listing and the cache key.
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
	if _, err := srv.AttachDir("csv", csvDir, aggcavsat.Options{}); err != nil {
		t.Fatal(err)
	}
	tn, err := srv.AttachDir("snap", snapDir, aggcavsat.Options{})
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
	if _, err := srv.AttachDir("bad", bad, aggcavsat.Options{}); err == nil {
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
