package obsv

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
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
// empty exposition, a 404 trace/journal).
type HandlerConfig struct {
	Registry *Registry
	Tracer   *Tracer
	Journal  *Journal
	// Traces serves retained request traces on /debug/trace?trace=<id>
	// and the retained listing on /debug/trace?list=1.
	Traces *TraceStore
	// Extra, when non-nil, is merged into the /healthz payload under
	// "extra" on every request (live values, e.g. attached instances).
	Extra func() map[string]any
}

// NewHandler builds the debug HTTP handler (the cavsatd debug plane):
//
//	/metrics       Prometheus text exposition of the registry, plus the
//	               tracer's own obsv_spans_* families and the journal's
//	               written/dropped counters when those are set
//	/healthz       liveness + build/runtime identity JSON
//	/debug/trace   current tracer snapshot; ?format=tree (default) or
//	               ?format=chrome for Chrome trace-event JSON; a retained
//	               request trace with ?trace=<id>, the retention index
//	               with ?list=1
//	/debug/journal the last n journal entries (?n=K, default 32) as a
//	               JSON array, newest last
//	/debug/pprof/  the standard net/http/pprof surface (profile, heap,
//	               goroutine, trace, …)
//
// Every endpoint reads live state: scraping /metrics during a run
// returns counters that move between scrapes.
func NewHandler(cfg HandlerConfig) http.Handler {
	reg, tr, j := cfg.Registry, cfg.Tracer, cfg.Journal
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
		if tr != nil {
			tr.WritePrometheus(w)
		}
		if j != nil {
			j.WritePrometheus(w)
		}
	})
	mux.HandleFunc("/debug/journal", func(w http.ResponseWriter, r *http.Request) {
		if j == nil {
			http.Error(w, "no journal installed", http.StatusNotFound)
			return
		}
		n := 32
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v <= 0 {
				http.Error(w, fmt.Sprintf("bad n %q (want a positive integer)", q), http.StatusBadRequest)
				return
			}
			n = v
		}
		w.Header().Set("Content-Type", "application/json")
		entries := j.Tail(n)
		if entries == nil {
			entries = []JournalEntry{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(entries)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		target := tr
		q := r.URL.Query()
		if id := q.Get("trace"); id != "" {
			if cfg.Traces == nil {
				http.Error(w, "no trace store installed", http.StatusNotFound)
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
			rt, ok := cfg.Traces.Get(tid)
			if !ok {
				http.Error(w, fmt.Sprintf("trace %s not retained", id), http.StatusNotFound)
				return
			}
			target = rt.Tracer
		}
		if q.Get("list") != "" {
			if cfg.Traces == nil {
				http.Error(w, "no trace store installed", http.StatusNotFound)
				return
			}
			type item struct {
				TraceID    string  `json:"trace_id"`
				Reason     string  `json:"reason"`
				Query      string  `json:"query,omitempty"`
				Tenant     string  `json:"tenant,omitempty"`
				Start      string  `json:"start"`
				DurationMS float64 `json:"duration_ms"`
				Spans      int     `json:"spans"`
			}
			retained := cfg.Traces.List()
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
			return
		}
		if target == nil {
			http.Error(w, "no tracer installed", http.StatusNotFound)
			return
		}
		switch format := q.Get("format"); format {
		case "", "tree":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintf(w, "trace %s\n", target.TraceID())
			target.WriteTree(w)
		case "chrome", "json":
			w.Header().Set("Content-Type", "application/json")
			target.WriteChromeTrace(w)
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
