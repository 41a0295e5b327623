// Command cavsatd serves consistent answers of aggregation queries over
// HTTP: a long-running query service over one or more attached database
// instances, with admission control, a result cache, and the full debug
// plane (/metrics, /healthz, /debug/trace, pprof) in the same
// listener. It is the only binary with a live HTTP debug plane;
// the one-shot binaries write journal lines and trace files instead.
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
//	GET  /metrics          Prometheus exposition: engine metrics plus
//	                        cavsatd_* service metrics (one request
//	                        latency histogram by tenant/route/outcome,
//	                        queue depth, cache hits/misses)
//	GET  /healthz          liveness, uptime, attached-instance count,
//	                        journal write/drop counters
//	GET  /debug/slo        availability and latency SLO attainment with
//	                        5m/1h burn rates
//	GET  /debug/trace      the retained-trace index; ?trace=<id> one
//	                        retained request trace; /debug/pprof/*
//	                        profiling
//
// The -journal file is the one copy of the wide events, one JSON line
// per engine call (`tail -n K` reads the latest; `aggbench
// -journal-read` decodes it); /healthz and /metrics report how many
// lines were written and dropped.
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
// is stamped on the journal line of the solve. Slow (over
// -slo-latency-ms), errored, timed-out and shed requests retain their
// full span buffer for /debug/trace?trace=<id> (bounded by
// -trace-retain), under the reason of their outcome or "slow"; a
// healthy request within the objective is not retained.
// Each request is one observation of cavsatd_request_duration_seconds,
// labeled by tenant, route and outcome under a fixed cardinality cap;
// its _count is the request count. /debug/slo reports attainment and
// burn rates against -slo-latency-ms and -slo-availability (the target
// of both objectives), read from that same histogram, and trace
// retention is decided from the same observation. The engine's
// aggcavsat_call_seconds counts and times the engine calls alone.
//
// Attached directories that hold a columnar snapshot (snapshot.bin,
// written by datagen -snapshot) are mmap'ed zero-copy instead of
// parsing CSV; the snapshot's content fingerprint is reported as
// data_version by /admin/instances.
//
// The result cache holds up to -cache-bytes of encoded answers keyed by
// (query fingerprint, instance version). Every attach gets a version
// unique across the server, and it fixes the instance's constraints,
// snapshot and planner mode; identical concurrent queries coalesce into
// one solve.
//
// The -planner flag (default auto) serves every query on the solver
// route; force-rewrite serves the ConQuer-style rewriting instead and
// fails the queries it cannot answer. Answers are identical on every
// route. Each response carries its route, and the route label of
// cavsatd_request_duration_seconds_count counts the responses per route
// (a cached answer counts under route="cache"; a request that joined an
// identical in-flight solve answers with cached:false and that solve's
// route, and cavsatd_coalesced_total counts it).
//
// A SAT-route component that group elimination declines runs the
// built-in MaxHS-style solver (with its RC2 fallback); -external-solver
// path hands those WPMaxSAT instances to a MaxHS-compatible binary
// instead.
//
// Every tenant — -data directories, the -dbgen demo and hot attaches —
// is built with the same engine options (-planner, -parallel,
// -external-solver, -journal). A request that failed or timed out is
// its journal line (anomaly, error, trace id, every counter) and its
// retained trace, whose maxsat.solve spans carry the solver's last
// lb/ub bracket.
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
	cacheBytes := fs.Int64("cache-bytes", server.DefaultCacheBytes, "result cache budget in encoded answer bytes (negative disables caching)")
	sloLatencyMS := fs.Int("slo-latency-ms", 250, "latency SLO target in milliseconds (requests answered within it count as good; drives /debug/slo and tail-based trace retention)")
	sloAvailability := fs.Float64("slo-availability", 0.999, "availability/latency SLO objective fraction in (0,1)")
	traceRetain := fs.Int("trace-retain", 0, "retained request traces backing /debug/trace?trace=<id> (0 = default)")
	f := cli.Defaults()
	f.Register(fs, cli.SF, cli.Inconsistency, cli.Seed, cli.Journal,
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
		CacheBytes:      *cacheBytes,
		Planner:         opts.Planner,
		TenantOptions:   opts,
		SLOLatency:      time.Duration(*sloLatencyMS) * time.Millisecond,
		SLOAvailability: *sloAvailability,
		TraceRetain:     *traceRetain,
		Metrics:         obsv.NewRegistry(),
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
		"request_timeout", *requestTimeout, "cache_bytes", *cacheBytes)
	<-ctx.Done()
	sess.Logger.Info("shutting down")
	return running.Close()
}
