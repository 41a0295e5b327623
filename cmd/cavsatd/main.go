// Command cavsatd serves consistent answers of aggregation queries over
// HTTP: a long-running query service over one or more attached database
// instances, with admission control, a result cache, and the full debug
// plane (/metrics, /healthz, /debug/trace, /debug/journal, pprof) in
// the same listener.
//
//	cavsatd -listen :7878 -data bank=testdata/bank
//	cavsatd -listen :7878 -dbgen            # demo TPC-H tenant
//
// Endpoints:
//
//	POST /query            {"instance": ..., "sql": ..., "label": ...,
//	                        "timeout_ms": ...} → range answers JSON
//	GET  /query?q=...      same via URL parameters (instance, q, label,
//	                        timeout_ms)
//	GET  /admin/instances  list attached tenants
//	POST /admin/instances  {"name": ..., "dir": ...} hot-attach a
//	                        schema.txt + CSV directory
//	GET  /metrics          Prometheus exposition: engine counters plus
//	                        cavsatd_* service metrics (requests and
//	                        latency by tenant/route/outcome, queue depth,
//	                        cache hits/misses)
//	GET  /healthz          liveness, uptime, attached-instance count,
//	                        journal write/drop counters
//	GET  /debug/slo        availability and latency SLO attainment with
//	                        5m/1h burn rates
//	GET  /debug/trace      recent spans; ?trace=<id> a retained request
//	                        trace; ?list=1 the retention index;
//	                        /debug/journal wide events; /debug/pprof/*
//	                        profiling
//
// Load shedding: at most -max-inflight queries solve concurrently; up
// to -max-queue more wait at most -queue-wait for a slot; everything
// beyond that is rejected immediately with HTTP 429 and a Retry-After
// hint. Each request is bounded by -request-timeout (clients may lower
// it per request, never raise it).
//
// Request correlation: an incoming W3C traceparent header is adopted as
// the request's trace id (one is minted otherwise); the response echoes
// it in a Traceparent header and a trace_id JSON field, and the same id
// is stamped on the journal line, explain report and flight bundle of
// the solve. Slow (over -slo-latency-ms), errored and shed requests
// retain their full span buffer for /debug/trace?trace=<id>, plus a
// -trace-sample fraction of healthy ones (bounded by -trace-retain).
// /metrics labels cavsatd_requests_total and
// cavsatd_request_duration_seconds by tenant, route and outcome under a
// fixed cardinality cap, and /debug/slo reports attainment and burn
// rates against -slo-latency-ms and -slo-availability.
//
// Attached directories that hold a columnar snapshot (snapshot.bin,
// written by datagen -snapshot) are mmap'ed zero-copy instead of
// parsing CSV; the snapshot's content fingerprint is reported as
// data_version by /admin/instances.
//
// The result cache holds -cache-entries finished answers keyed by
// (query fingerprint, constraint fingerprint, instance version,
// snapshot data version, planner mode); identical concurrent queries
// coalesce into one solve.
//
// The -planner flag (default auto) routes rewritable queries through
// the SAT-free ConQuer-style executor and everything else through the
// solver; answers are identical on every route. Each response carries
// its route, and /metrics exposes cavsatd_route_total{route=...}
// counters that sum to the queries served (cached answers count under
// the route that originally computed them).
//
// Every SAT-route query runs the built-in MaxHS-style solver (with its
// RC2 fallback); -external-solver path hands the WPMaxSAT instances to
// a MaxHS-compatible binary instead.
//
// The -dbgen tenant is the aggbench replay instance: -sf,
// -inconsistency and -seed default to the bench settings, so
// `aggbench -replay -target http://addr` verifies byte-identical
// answers against its own in-process run.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"aggcavsat"
	"aggcavsat/internal/obsv"
	"aggcavsat/internal/server"
	"aggcavsat/internal/tpch"
)

// dataFlags collects repeatable -data name=dir attachments.
type dataFlags []struct{ name, dir string }

func (d *dataFlags) String() string {
	var parts []string
	for _, e := range *d {
		parts = append(parts, e.name+"="+e.dir)
	}
	return strings.Join(parts, ",")
}

func (d *dataFlags) Set(v string) error {
	name, dir, ok := strings.Cut(v, "=")
	if !ok || name == "" || dir == "" {
		return fmt.Errorf("want name=dir, got %q", v)
	}
	*d = append(*d, struct{ name, dir string }{name, dir})
	return nil
}

func main() {
	var data dataFlags
	listen := flag.String("listen", ":7878", "address to serve the query API and debug plane on")
	flag.Var(&data, "data", "attach a schema.txt + CSV directory as a named instance, name=dir (repeatable)")
	dbgen := flag.Bool("dbgen", false, "attach a generated TPC-H demo instance named 'demo'")
	sf := flag.Float64("sf", 0.001, "scale factor of the -dbgen instance (bench default)")
	inconsistency := flag.Float64("inconsistency", 10, "injected inconsistency percent of the -dbgen instance")
	seed := flag.Uint64("seed", 2022, "generator seed of the -dbgen instance")
	maxInflight := flag.Int("max-inflight", 4, "max concurrently solving queries")
	maxQueue := flag.Int("max-queue", 0, "max queries waiting for a solve slot (0 = 2×max-inflight, negative = no queue)")
	queueWait := flag.Duration("queue-wait", 5*time.Second, "max time a query may wait for a solve slot before a 429")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "default per-request deadline (clients may lower it)")
	cacheEntries := flag.Int("cache-entries", 1024, "result cache capacity in answers (negative disables caching)")
	sloLatencyMS := flag.Int("slo-latency-ms", 250, "latency SLO target in milliseconds (requests answered within it count as good; drives /debug/slo and tail-based trace retention)")
	sloAvailability := flag.Float64("slo-availability", 0.999, "availability/latency SLO objective fraction in (0,1)")
	traceSample := flag.Float64("trace-sample", 0, "probability of retaining the trace of a healthy fast request (slow/errored/shed requests are always retained)")
	traceRetain := flag.Int("trace-retain", 0, "retained request traces backing /debug/trace?trace=<id> (0 = default)")
	journalPath := flag.String("journal", "", "append one wide-event JSON line per solve to this file")
	flightDir := flag.String("flight-dir", "", "write flight-recorder bundles for anomalous queries into this directory")
	slowQuery := flag.Duration("slow-query", 0, "queries slower than this dump a flight bundle even on success (0 = only errors/timeouts)")
	plannerMode := flag.String("planner", "auto", "query planner mode for every attached instance: auto (rewrite when possible, solver otherwise), force-sat, force-rewrite")
	external := flag.String("external-solver", "", "path to a MaxHS-compatible MaxSAT binary to use instead of the built-in MaxHS")
	parallel := flag.Int("parallel", 0, "solver worker-pool size per query (0 = GOMAXPROCS, 1 = sequential)")
	verbose := flag.Bool("v", false, "debug logging")
	flag.Parse()

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)

	if !*dbgen && len(data) == 0 {
		fatalIf(fmt.Errorf("nothing to serve: pass -dbgen and/or -data name=dir"))
	}

	pm, err := aggcavsat.ParsePlannerMode(*plannerMode)
	fatalIf(err)
	opts := aggcavsat.Options{
		ExternalSolverPath: *external,
		Parallelism:        *parallel,
		SlowQuery:          *slowQuery,
		Planner:            pm,
	}
	if *flightDir != "" {
		opts.OnAnomaly = obsv.DumpDir(*flightDir)
	}

	cfg := server.Config{
		MaxInFlight:     *maxInflight,
		MaxQueue:        *maxQueue,
		QueueWait:       *queueWait,
		RequestTimeout:  *requestTimeout,
		CacheEntries:    *cacheEntries,
		Planner:         pm,
		SLOLatency:      time.Duration(*sloLatencyMS) * time.Millisecond,
		SLOAvailability: *sloAvailability,
		TraceSample:     *traceSample,
		TraceRetain:     *traceRetain,
		Metrics:         obsv.NewRegistry(),
		Tracer:          obsv.NewTracer(),
	}
	if *journalPath != "" {
		j, err := obsv.OpenJournal(*journalPath)
		fatalIf(err)
		cfg.Journal = j
		defer j.Close()
	}
	srv := server.New(cfg)

	if *dbgen {
		in, err := tpch.DemoInstance(*sf, *inconsistency, *seed)
		fatalIf(err)
		genOpts := opts
		genOpts.Metrics = cfg.Metrics
		genOpts.Journal = cfg.Journal
		sys, err := aggcavsat.Open(in, genOpts)
		fatalIf(err)
		t := srv.Attach("demo", "", sys, in, nil)
		logger.Info("attached demo instance", "facts", t.Facts, "relations", t.Relations,
			"sf", *sf, "inconsistency", *inconsistency, "seed", *seed)
	}
	for _, e := range data {
		t, err := srv.AttachDir(e.name, e.dir, opts)
		fatalIf(err)
		logger.Info("attached instance", "name", t.Name, "dir", t.Dir,
			"mode", t.Mode, "facts", t.Facts, "relations", t.Relations)
	}

	run, err := server.Start(*listen, srv)
	fatalIf(err)
	logger.Info("cavsatd serving", "addr", run.Addr(),
		"max_inflight", *maxInflight, "queue_wait", *queueWait,
		"request_timeout", *requestTimeout, "cache_entries", *cacheEntries)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	logger.Info("shutting down", "signal", s.String())
	if err := run.Close(); err != nil {
		logger.Error("shutdown", "err", err)
		os.Exit(1)
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cavsatd:", err)
		os.Exit(1)
	}
}
