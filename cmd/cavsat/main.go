// Command cavsat computes range consistent answers of an aggregation
// SQL query over a CSV-backed database, the end-user surface of the
// AggCAvSAT system.
//
// The database lives in a directory with one <relation>.csv per relation
// plus a schema.txt describing relations and constraints:
//
//	# relation <name> (<attr>:<int|float|string> ...) [key <attr> ...]
//	relation Cust (CID:string NAME:string CITY:string) key CID
//	relation Acc  (ACCID:string TYPE:string CITY:string BAL:int) key ACCID
//	# optional functional dependencies (switches the engine to denial
//	# constraints):
//	fd Cust CID -> NAME
//
// When the directory also holds a columnar snapshot (snapshot.bin,
// written by datagen -snapshot), the facts are mmap'ed zero-copy from
// it instead of parsing the CSV files; schema.txt still supplies the
// constraints and is verified compatible with the snapshot's schema.
//
// Example:
//
//	cavsat -data ./bankdir "SELECT CITY, COUNT(*) FROM Cust GROUP BY CITY"
//
// Observability:
//
//	-stats            per-phase breakdown table on stderr
//	-explain          per-solve explain report on stderr: code paths
//	                  taken (constraint mode, planner route, solver),
//	                  cache outcomes, per-component CNF/solve breakdown; its
//	                  phase totals are the same counters -stats prints
//	-explain-json     the explain report as JSON instead of a table
//	-journal f.jsonl  append one wide-event JSON line per solve (bounded
//	                  non-blocking writer; decode with
//	                  `aggbench -journal-read`)
//	-trace out.json   Chrome trace-event file (chrome://tracing, Perfetto)
//	-progress         periodic solver progress on stderr
//	-metrics out.prom Prometheus text exposition of the session metrics
//	-listen addr      serve /metrics, /debug/trace, /debug/pprof and
//	                  /healthz on addr (e.g. localhost:9090) while the
//	                  query runs
//	-flight-dir dir   write a flight-recorder bundle (recent solver
//	                  events + metrics) into dir when the query times
//	                  out, fails, or exceeds -slow-query
//	-slow-query D     treat queries slower than D as anomalies worth a
//	                  flight dump (e.g. 5s; 0 = only errors/timeouts)
//	-v                debug logging (log/slog) on stderr
//
// Planner:
//
//	-planner auto     route rewritable queries through the SAT-free
//	                  ConQuer-style rewriting, the rest through the
//	                  solver (default). force-sat always uses the
//	                  solver; force-rewrite fails on non-rewritable
//	                  queries instead of falling back. Answers are
//	                  identical on every route; -explain shows which
//	                  route answered and why.
//
// Solver:
//
//	-external-solver P  hand each WPMaxSAT instance to the
//	                  MaxHS-compatible binary P (one WCNF file per run)
//	                  instead of the built-in MaxHS-style solver, which
//	                  falls back to core-guided RC2 search on its own
//
// Concurrency and timeouts:
//
//	-parallel N       worker-pool size for independent groups/components
//	                  (0 = GOMAXPROCS, 1 = sequential; answers identical)
//	-timeout D        wall-clock bound for the whole query (e.g. 30s);
//	                  on expiry the solve is interrupted and the command
//	                  exits with a timeout error
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
	"time"

	"aggcavsat"
	"aggcavsat/internal/obsv"
	"aggcavsat/internal/schemafile"
)

func main() {
	dataDir := flag.String("data", ".", "directory with schema.txt and <relation>.csv files")
	plannerMode := flag.String("planner", "auto", "query planner mode: auto (rewrite when possible, solver otherwise), force-sat, force-rewrite")
	external := flag.String("external-solver", "", "path to a MaxHS-compatible MaxSAT binary to use instead of the built-in MaxHS")
	stats := flag.Bool("stats", false, "print a per-phase statistics table")
	explain := flag.Bool("explain", false, "print a per-solve explain report (code paths, caches, components)")
	explainJSON := flag.Bool("explain-json", false, "print the explain report as JSON")
	journalPath := flag.String("journal", "", "append one wide-event JSON line per solve to this file")
	trace := flag.String("trace", "", "write a Chrome trace-event JSON file of the query")
	progress := flag.Bool("progress", false, "print periodic solver progress")
	progressEvery := flag.Int64("progress-every", 0, "conflicts between progress reports (0 = solver default)")
	metricsOut := flag.String("metrics", "", "write the Prometheus text exposition of the session metrics ('-' for stderr)")
	listen := flag.String("listen", "", "serve /metrics, /debug/trace, /debug/pprof and /healthz on this address while the query runs")
	flightDir := flag.String("flight-dir", "", "write flight-recorder bundles for anomalous queries into this directory")
	slowQuery := flag.Duration("slow-query", 0, "queries slower than this dump a flight bundle even on success (0 = only errors/timeouts)")
	parallel := flag.Int("parallel", 0, "solver worker-pool size (0 = GOMAXPROCS, 1 = sequential)")
	timeout := flag.Duration("timeout", 0, "wall-clock bound for the query, e.g. 30s (0 = none)")
	verbose := flag.Bool("v", false, "debug logging")
	flag.Parse()

	level := slog.LevelWarn
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cavsat [-data dir] \"SELECT ...\"")
		os.Exit(2)
	}
	sql := flag.Arg(0)

	sf, err := os.Open(filepath.Join(*dataDir, "schema.txt"))
	fatalIf(err)
	parsed, err := schemafile.Read(sf)
	sf.Close()
	fatalIf(err)
	loadStart := time.Now()
	in, snap, err := aggcavsat.OpenDir(parsed.Schema, *dataDir)
	fatalIf(err)
	if snap != nil {
		defer snap.Close()
		logger.Debug("snapshot mapped", "path", snap.Path(),
			"bytes", snap.SizeBytes(), "data_version", fmt.Sprintf("%016x", snap.DataVersion()),
			"facts", in.NumFacts(), "elapsed", time.Since(loadStart))
	} else {
		logger.Debug("database loaded", "dir", *dataDir, "facts", in.NumFacts(), "elapsed", time.Since(loadStart))
	}

	pm, err := aggcavsat.ParsePlannerMode(*plannerMode)
	fatalIf(err)
	opts := aggcavsat.Options{
		DenialConstraints:  parsed.FDs,
		ExternalSolverPath: *external,
		Parallelism:        *parallel,
		Timeout:            *timeout,
		Planner:            pm,
	}
	if *progress || *verbose {
		opts.ProgressEvery = *progressEvery
		opts.Progress = func(p aggcavsat.SolverProgress) {
			logger.Info("solver progress",
				"alg", p.Algorithm.String(), "phase", p.Phase, "iter", p.Iteration,
				"sat_calls", p.SATCalls, "conflicts", p.Conflicts,
				"learnt", p.LearntLive, "trail", p.TrailDepth,
				"lb", bound(p.LowerBound), "ub", bound(p.UpperBound))
		}
	}
	var metrics *obsv.Registry
	if *metricsOut != "" || *listen != "" {
		metrics = obsv.NewRegistry()
		opts.Metrics = metrics
	}
	if *flightDir != "" {
		opts.SlowQuery = *slowQuery
		opts.OnAnomaly = obsv.DumpDir(*flightDir)
	}
	opts.Explain = *explain || *explainJSON
	var journal *obsv.Journal
	if *journalPath != "" {
		journal, err = obsv.OpenJournal(*journalPath)
		fatalIf(err)
		opts.Journal = journal
		defer func() {
			journal.Close()
			logger.Debug("journal closed", "path", journal.Path(),
				"written", journal.Written(), "dropped", journal.Dropped())
		}()
	}
	sys, err := aggcavsat.Open(in, opts)
	fatalIf(err)

	ctx := context.Background()
	var tracer *obsv.Tracer
	if *trace != "" || *listen != "" {
		tracer = obsv.NewTracer()
		ctx = obsv.WithTracer(ctx, tracer)
	}
	if *listen != "" {
		srv, err := obsv.Serve(*listen, metrics, tracer, journal)
		fatalIf(err)
		defer srv.Close()
		logger.Debug("debug server listening", "addr", srv.Addr())
	}

	res, err := sys.QueryContext(ctx, sql)
	fatalIf(err)

	fmt.Println(strings.Join(res.Columns, " | "))
	for _, row := range res.Rows {
		var cells []string
		for _, v := range row.Key {
			cells = append(cells, v.String())
		}
		for _, rng := range row.Ranges {
			cells = append(cells, aggcavsat.FormatRange(rng))
		}
		fmt.Println(strings.Join(cells, " | "))
	}
	if *stats {
		printStats(res.Stats)
	}
	for _, ex := range res.Explains {
		if *explainJSON {
			enc := json.NewEncoder(os.Stderr)
			enc.SetIndent("", "  ")
			fatalIf(enc.Encode(ex))
			continue
		}
		fmt.Fprintln(os.Stderr)
		fatalIf(ex.WriteTable(os.Stderr))
	}
	if tracer != nil && *trace != "" {
		out, err := os.Create(*trace)
		fatalIf(err)
		fatalIf(tracer.WriteChromeTrace(out))
		fatalIf(out.Close())
		logger.Debug("trace written", "path", *trace, "spans", tracer.Len(), "dropped", tracer.Dropped())
	}
	if metrics != nil && *metricsOut != "" {
		w := os.Stderr
		if *metricsOut != "-" {
			f, err := os.Create(*metricsOut)
			fatalIf(err)
			defer f.Close()
			w = f
		}
		fatalIf(metrics.WritePrometheus(w))
		if tracer != nil {
			fatalIf(tracer.WritePrometheus(w))
		}
	}
}

// printStats renders the per-phase breakdown table on stderr.
func printStats(st aggcavsat.Stats) {
	tw := tabwriter.NewWriter(os.Stderr, 2, 4, 2, ' ', 0)
	total := st.RewriteTime + st.WitnessTime + st.ConstraintTime + st.EncodeTime + st.SolveTime
	fmt.Fprintf(tw, "phase\ttime\t\n")
	if st.RewriteTime > 0 {
		fmt.Fprintf(tw, "rewrite\t%v\t\n", st.RewriteTime)
	}
	fmt.Fprintf(tw, "witness\t%v\t\n", st.WitnessTime)
	fmt.Fprintf(tw, "constraint\t%v\t\n", st.ConstraintTime)
	fmt.Fprintf(tw, "encode\t%v\t\n", st.EncodeTime)
	fmt.Fprintf(tw, "solve\t%v\t\n", st.SolveTime)
	fmt.Fprintf(tw, "total\t%v\t\n", total)
	fmt.Fprintf(tw, "\t\t\n")
	fmt.Fprintf(tw, "SAT calls\t%d\t\n", st.SATCalls)
	fmt.Fprintf(tw, "MaxSAT runs\t%d\t\n", st.MaxSATRuns)
	fmt.Fprintf(tw, "consistent-part skips\t%d\t\n", st.ConsistentPartSkips)
	fmt.Fprintf(tw, "largest CNF\t%d vars / %d clauses\t\n", st.MaxVars, st.MaxClauses)
	fmt.Fprintf(tw, "alloc (witness/encode/solve)\t%s / %s / %s\t\n",
		mib(st.WitnessAllocBytes), mib(st.EncodeAllocBytes), mib(st.SolveAllocBytes))
	fmt.Fprintf(tw, "live heap / GC cycles\t%s / %d\t\n", mib(st.HeapBytes), st.GCCycles)
	tw.Flush()
}

// mib renders a byte count in MiB with two decimals.
func mib(b int64) string {
	return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
}

func bound(v int64) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%d", v)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cavsat:", err)
		os.Exit(1)
	}
}
