// Command cavsatd serves consistent answers of aggregation queries over
// HTTP: a long-running query service over one or more attached database
// instances, with admission control, a result cache, and the full debug
// plane (/metrics, /healthz, /debug/trace, /debug/journal, pprof) in
// the same listener. It is the only binary with a live HTTP debug plane;
// the one-shot binaries write journal lines, flight bundles and trace
// files instead.
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
// The -planner flag (default auto) serves every query on the solver
// route; force-rewrite serves the ConQuer-style rewriting instead and
// fails the queries it cannot answer. Answers are identical on every
// route. Each response carries its route, and /metrics exposes
// cavsatd_route_total{route=...} counters that sum to the queries
// served (cached answers count under the route that originally
// computed them).
//
// A SAT-route component that group elimination declines runs the
// built-in MaxHS-style solver (with its RC2 fallback); -external-solver
// path hands those WPMaxSAT instances to a MaxHS-compatible binary
// instead.
//
// Every tenant — -data directories, the -dbgen demo and hot attaches —
// is built with the same engine options (-planner, -parallel,
// -external-solver, -slow-query, -flight-dir, -journal).
//
// The -dbgen tenant is the aggbench replay instance: -sf,
// -inconsistency and -seed default to the demo settings that datagen
// and aggbench also default to, so `aggbench -replay -target
// http://addr` verifies byte-identical answers against its own
// in-process run.
//
// SIGINT or SIGTERM shuts the listener down, draining in-flight
// requests briefly, and flushes the journal.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"time"

	"aggcavsat"
	"aggcavsat/internal/cli"
	"aggcavsat/internal/obsv"
	"aggcavsat/internal/server"
	"aggcavsat/internal/tpch"
)

func main() { cli.Main("cavsatd", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := cli.NewFlagSet("cavsatd", stderr)
	var data [][2]string // name, dir
	listen := fs.String("listen", ":7878", "address to serve the query API and debug plane on")
	fs.Func("data", "attach a schema.txt + CSV directory as a named instance, name=dir (repeatable)", func(v string) error {
		name, dir, ok := strings.Cut(v, "=")
		if !ok || name == "" || dir == "" {
			return fmt.Errorf("want name=dir, got %q", v)
		}
		data = append(data, [2]string{name, dir})
		return nil
	})
	dbgen := fs.Bool("dbgen", false, "attach a generated TPC-H demo instance named 'demo'")
	maxInflight := fs.Int("max-inflight", 4, "max concurrently solving queries")
	maxQueue := fs.Int("max-queue", 0, "max queries waiting for a solve slot (0 = 2×max-inflight, negative = no queue)")
	queueWait := fs.Duration("queue-wait", 5*time.Second, "max time a query may wait for a solve slot before a 429")
	requestTimeout := fs.Duration("request-timeout", 30*time.Second, "default per-request deadline (clients may lower it)")
	cacheEntries := fs.Int("cache-entries", 1024, "result cache capacity in answers (negative disables caching)")
	sloLatencyMS := fs.Int("slo-latency-ms", 250, "latency SLO target in milliseconds (requests answered within it count as good; drives /debug/slo and tail-based trace retention)")
	sloAvailability := fs.Float64("slo-availability", 0.999, "availability/latency SLO objective fraction in (0,1)")
	traceSample := fs.Float64("trace-sample", 0, "probability of retaining the trace of a healthy fast request (slow/errored/shed requests are always retained)")
	traceRetain := fs.Int("trace-retain", 0, "retained request traces backing /debug/trace?trace=<id> (0 = default)")
	f := cli.Defaults()
	f.Register(fs, cli.SF, cli.Inconsistency, cli.Seed, cli.Journal, cli.FlightDir, cli.SlowQuery,
		cli.Planner, cli.ExternalSolver, cli.Parallel, cli.Verbose)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if !*dbgen && len(data) == 0 {
		return errors.New("nothing to serve: pass -dbgen and/or -data name=dir")
	}

	sess, err := f.Open(stderr, slog.LevelInfo)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, sess.Close()) }()
	opts := sess.Options()
	srv := server.New(server.Config{
		MaxInFlight:     *maxInflight,
		MaxQueue:        *maxQueue,
		QueueWait:       *queueWait,
		RequestTimeout:  *requestTimeout,
		CacheEntries:    *cacheEntries,
		Planner:         opts.Planner,
		TenantOptions:   opts,
		SLOLatency:      time.Duration(*sloLatencyMS) * time.Millisecond,
		SLOAvailability: *sloAvailability,
		TraceSample:     *traceSample,
		TraceRetain:     *traceRetain,
		Metrics:         obsv.NewRegistry(),
		Tracer:          obsv.NewTracer(),
		Journal:         sess.Journal,
	})

	if *dbgen {
		in, err := tpch.DemoInstance(f.SF, f.Inconsistency, f.Seed)
		if err != nil {
			return err
		}
		sys, err := aggcavsat.Open(in, srv.TenantOptions())
		if err != nil {
			return err
		}
		t := srv.Attach("demo", "", sys, in, nil)
		sess.Logger.Info("attached demo instance", "facts", t.Facts, "relations", t.Relations,
			"sf", f.SF, "inconsistency", f.Inconsistency, "seed", f.Seed)
	}
	for _, e := range data {
		t, err := srv.AttachDir(e[0], e[1])
		if err != nil {
			return err
		}
		sess.Logger.Info("attached instance", "name", t.Name, "dir", t.Dir,
			"mode", t.Mode, "facts", t.Facts, "relations", t.Relations)
	}

	running, err := server.Start(*listen, srv)
	if err != nil {
		return err
	}
	sess.Logger.Info("cavsatd serving", "addr", running.Addr(),
		"max_inflight", *maxInflight, "queue_wait", *queueWait,
		"request_timeout", *requestTimeout, "cache_entries", *cacheEntries)
	<-ctx.Done()
	sess.Logger.Info("shutting down")
	return running.Close()
}
