package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzServeHTTP drives the service mux with arbitrary methods, query
// strings and bodies on the read-only endpoints: /query over the bank
// fixture, /debug/trace, /debug/slo, /healthz and /metrics. It never
// reaches /admin/instances, whose POST reads the filesystem. No input
// may panic a handler or draw a status outside the documented set, and
// /query must answer a QueryResponse on 200 and a typed ErrorResponse
// with its code otherwise.
func FuzzServeHTTP(f *testing.F) {
	paths := [...]string{"/query", "/debug/trace", "/debug/slo", "/healthz", "/metrics"}
	for _, seed := range []struct {
		method string
		path   uint8
		query  string
		body   string
	}{
		{"POST", 0, "", `{"sql":"SELECT SUM(BAL) FROM Acc"}`},
		{"POST", 0, "", `{"sql":"SELECT CITY, MIN(BAL) FROM Acc GROUP BY CITY","label":"q","timeout_ms":5}`},
		{"POST", 0, "", `{"instance":"nope","sql":"SELECT COUNT(*) FROM Acc"}`},
		{"POST", 0, "", `{"sql":`},
		{"GET", 0, "q=SELECT+CITY,+COUNT(*)+FROM+Acc+GROUP+BY+CITY&label=x", ""},
		{"GET", 0, "q=SELECT+SUM(BAL)+FROM+Acc&timeout_ms=abc", ""},
		{"GET", 0, "q=DELETE+FROM+Acc", ""},
		{"PUT", 0, "", ""},
		{"GET", 1, "", ""},
		{"GET", 1, "trace=zz", ""},
		{"GET", 1, "trace=4bf92f3577b34da6a3ce929d0e0e4736&format=chrome", ""},
		{"GET", 2, "", ""},
		{"HEAD", 3, "", ""},
		{"GET", 4, "", ""},
	} {
		f.Add(seed.method, seed.path, seed.query, []byte(seed.body))
	}
	// A short deadline keeps an expensive statement from stalling the
	// run: it answers 504 instead.
	srv := New(Config{RequestTimeout: time.Second})
	if _, err := srv.AttachDir("bank", writeFixture(f)); err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	allowed := map[int]bool{
		http.StatusOK: true, http.StatusBadRequest: true, http.StatusNotFound: true,
		http.StatusMethodNotAllowed: true, http.StatusTooManyRequests: true, http.StatusGatewayTimeout: true,
	}
	f.Fuzz(func(t *testing.T, method string, path uint8, query string, body []byte) {
		p := paths[int(path)%len(paths)]
		req, err := http.NewRequest(method, p+"?"+query, bytes.NewReader(body))
		if err != nil {
			return // not an HTTP request a client could send
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if !allowed[rec.Code] {
			t.Fatalf("%s %s %q: status %d\n%s", method, req.URL, body, rec.Code, rec.Body.Bytes())
		}
		if p != "/query" {
			return
		}
		if rec.Code == http.StatusOK {
			var out QueryResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("%s %s %q: 200 body is no QueryResponse: %v\n%s", method, req.URL, body, err, rec.Body.Bytes())
			}
			return
		}
		var env ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Code == "" {
			t.Fatalf("%s %s %q: status %d body is no typed error (%v)\n%s", method, req.URL, body, rec.Code, err, rec.Body.Bytes())
		}
	})
}
