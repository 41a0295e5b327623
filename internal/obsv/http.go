package obsv

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"time"
)

// healthInfo is the /healthz payload: liveness plus enough build and
// runtime identity to tell scraped processes apart in a fleet, plus the
// journal's write/drop counters (a replay smoke asserts dropped stays 0
// under load) and any caller-provided extras (cavsatd adds its
// attached-instance count).
type healthInfo struct {
	Status         string         `json:"status"`
	UptimeS        float64        `json:"uptime_s"`
	GoVersion      string         `json:"go_version"`
	GOMAXPROCS     int            `json:"gomaxprocs"`
	Main           string         `json:"main,omitempty"`
	Revision       string         `json:"vcs_revision,omitempty"`
	Modified       bool           `json:"vcs_modified,omitempty"`
	JournalWritten *int64         `json:"journal_written,omitempty"`
	JournalDropped *int64         `json:"journal_dropped,omitempty"`
	Extra          map[string]any `json:"extra,omitempty"`
}

// buildIdentity reads the binary's embedded build info once (module path
// and vcs stamps are absent in test binaries and plain `go run`).
func buildIdentity() (main, revision string, modified bool) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "", "", false
	}
	main = bi.Main.Path
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			revision = kv.Value
		case "vcs.modified":
			modified = kv.Value == "true"
		}
	}
	return main, revision, modified
}

// HandlerConfig names the live state the debug handler reads. Any field
// may be nil; the endpoints that need it then degrade gracefully (an
// empty exposition, a 404 trace). The journal is read only for its
// written/dropped counts: its file is the one copy of its lines.
type HandlerConfig struct {
	Registry *Registry
	Journal  *Journal
	// Traces backs /debug/trace: the retained-trace index, and one
	// retained request trace by id.
	Traces *TraceStore
	// Extra, when non-nil, is merged into the /healthz payload under
	// "extra" on every request (live values, e.g. attached instances).
	Extra func() map[string]any
}

// NewHandler builds the debug HTTP handler (the cavsatd debug plane):
//
//	/metrics       Prometheus text exposition of the registry, plus the
//	               journal's written/dropped counters when one is set
//	/healthz       liveness + build/runtime identity JSON
//	/debug/trace   the retained-trace index as JSON (also ?list=1);
//	               ?trace=<id> one retained request trace,
//	               ?format=tree (default) or ?format=chrome for Chrome
//	               trace-event JSON
//	/debug/pprof/  the standard net/http/pprof surface (profile, heap,
//	               goroutine, trace, …)
//
// Every endpoint reads live state: scraping /metrics during a run
// returns counters that move between scrapes.
func NewHandler(cfg HandlerConfig) http.Handler {
	reg, j, traces := cfg.Registry, cfg.Journal, cfg.Traces
	start := time.Now()
	mainPath, revision, modified := buildIdentity()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		info := healthInfo{
			Status:     "ok",
			UptimeS:    time.Since(start).Seconds(),
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Main:       mainPath,
			Revision:   revision,
			Modified:   modified,
		}
		if j != nil {
			written, dropped := j.Written(), j.Dropped()
			info.JournalWritten, info.JournalDropped = &written, &dropped
		}
		if cfg.Extra != nil {
			info.Extra = cfg.Extra()
		}
		json.NewEncoder(w).Encode(info)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if reg != nil {
			if err := reg.WritePrometheus(w); err != nil {
				return
			}
		}
		if j != nil {
			j.WritePrometheus(w)
		}
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		if traces == nil {
			http.Error(w, "no trace store installed", http.StatusNotFound)
			return
		}
		q := r.URL.Query()
		id := q.Get("trace")
		if id == "" {
			writeTraceIndex(w, traces.List())
			return
		}
		var tid TraceID
		if len(id) != 32 {
			http.Error(w, fmt.Sprintf("bad trace id %q (want 32 hex digits)", id), http.StatusBadRequest)
			return
		}
		if _, err := hex.Decode(tid[:], []byte(id)); err != nil {
			http.Error(w, fmt.Sprintf("bad trace id %q (want 32 hex digits)", id), http.StatusBadRequest)
			return
		}
		rt, ok := traces.Get(tid)
		if !ok {
			http.Error(w, fmt.Sprintf("trace %s not retained", id), http.StatusNotFound)
			return
		}
		switch format := q.Get("format"); format {
		case "", "tree":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintf(w, "trace %s\n", rt.TraceID)
			rt.Tracer.WriteTree(w)
		case "chrome", "json":
			w.Header().Set("Content-Type", "application/json")
			rt.Tracer.WriteChromeTrace(w)
		default:
			http.Error(w, fmt.Sprintf("unknown format %q (want tree or chrome)", format), http.StatusBadRequest)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeTraceIndex serves the retained-trace index: one JSON item per
// retained request trace, oldest first.
func writeTraceIndex(w http.ResponseWriter, retained []RetainedTrace) {
	type item struct {
		TraceID    string  `json:"trace_id"`
		Reason     string  `json:"reason"`
		Query      string  `json:"query,omitempty"`
		Tenant     string  `json:"tenant,omitempty"`
		Start      string  `json:"start"`
		DurationMS float64 `json:"duration_ms"`
		Spans      int     `json:"spans"`
	}
	items := make([]item, len(retained))
	for i, rt := range retained {
		items[i] = item{
			TraceID:    rt.TraceID.String(),
			Reason:     rt.Reason,
			Query:      rt.Query,
			Tenant:     rt.Tenant,
			Start:      rt.Start.UTC().Format(time.RFC3339Nano),
			DurationMS: float64(rt.Duration.Microseconds()) / 1000,
			Spans:      rt.Tracer.Len(),
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(items)
}
