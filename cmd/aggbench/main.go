// Command aggbench regenerates the paper's evaluation tables and
// figures (Section VI) on the scaled-down substrate.
//
//	aggbench                # run everything, in paper order
//	aggbench -exp fig1      # one experiment (see -list)
//	aggbench -sf-small 0.002 -seed 7
//
// Output is plain text, one aligned table per experiment; EXPERIMENTS.md
// is produced from a full run.
//
// Observability:
//
//	-json dir         write BENCH_<experiment>.json record files (one
//	                  RunRecord per measurement: witness/constraint/
//	                  encode/solve ms, SAT calls, CNF size, timeouts)
//	-trace out.json   Chrome trace-event file covering the whole run
//	-listen addr      serve /metrics, /debug/trace, /debug/pprof and
//	                  /healthz on addr while the suite runs (curl it for
//	                  live progress)
//	-flight-dir dir   write flight-recorder bundles (recent solver
//	                  events + journal line) for queries that time out or
//	                  exceed -slow-query
//	-slow-query D     queries slower than D dump a flight bundle even on
//	                  success (0 = only timeouts/errors)
//	-compare old.json diff this run's records against a BENCH_*.json
//	                  baseline and report slowdowns plus allocation and
//	                  live-heap growth (informational unless
//	                  -compare-strict, which exits non-zero on a
//	                  deterministic flag: memory growth, answers drift,
//	                  or a new timeout — never wall-clock alone)
//	-journal f.jsonl  append one wide-event JSON line per engine call
//	                  (bounded, non-blocking writer; -listen exposes the
//	                  tail at /debug/journal)
//	-journal-read f   decode a journal file, print a per-query summary
//	                  table, and exit (non-zero on malformed lines)
//	-v                debug logging (per-experiment progress) on stderr
//
// Load replay:
//
//	-replay           replay a mixed query stream against one engine and
//	                  print a p50/p90/p99/max latency table instead of
//	                  running experiments
//	-replay-from f    query stream source: a journal captured with
//	                  -journal (its Query labels are replayed) or a spec
//	                  file (one workload query name per line, # comments);
//	                  default is the built-in scalar+grouped mix
//	-replay-n N       queries to issue (stream cycled/truncated; default
//	                  one pass over the stream)
//	-qps F            open-loop target arrival rate (0 = closed loop)
//	-replay-concurrency N  max in-flight queries (default 4)
//	-target URL       replay over HTTP against a running cavsatd instead
//	                  of in-process; each distinct query is also solved
//	                  locally and the server's answer digests must match
//	                  (the run exits non-zero on drift or when nothing
//	                  was answered). The server must serve the identical
//	                  instance: cavsatd -dbgen with the same -sf-small,
//	                  -seed and inconsistency settings.
//	-replay-instance  server tenant name for -target (default: the
//	                  server's sole instance)
//
// Concurrency and timeouts:
//
//	-planner M        planner mode for every engine the suite builds:
//	                  force-sat (default — the paper tables measure the
//	                  WPMaxSAT pipeline), auto, force-rewrite
//	-parallel N       worker-pool size inside each measured query
//	                  (0 = GOMAXPROCS, 1 = sequential); parallel runs
//	                  produce identical answers but per-phase times sum
//	                  worker durations and can exceed wall clock
//	-timeout D        wall-clock bound per query (e.g. 30s); expired
//	                  queries count in the experiment's timeout column
//	-cpuprofile f     write a pprof CPU profile of the whole run to f
//	-memprofile f     write a pprof heap profile at the end of the run
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"text/tabwriter"

	"aggcavsat/internal/bench"
	"aggcavsat/internal/obsv"
	"aggcavsat/internal/planner"
)

func main() {
	cfg := bench.DefaultConfig()
	exp := flag.String("exp", "all", "experiment to run ('all' or one of -list)")
	list := flag.Bool("list", false, "list experiment names and exit")
	jsonDir := flag.String("json", "", "directory for BENCH_<experiment>.json record files")
	trace := flag.String("trace", "", "write a Chrome trace-event JSON file of the run")
	verbose := flag.Bool("v", false, "debug logging")
	flag.Float64Var(&cfg.SFSmall, "sf-small", cfg.SFSmall, "scale factor standing in for the paper's 1 GB repairs")
	flag.Float64Var(&cfg.SFMedium, "sf-medium", cfg.SFMedium, "scale factor for 3 GB")
	flag.Float64Var(&cfg.SFLarge, "sf-large", cfg.SFLarge, "scale factor for 5 GB")
	flag.Float64Var(&cfg.MedigapScale, "medigap-scale", cfg.MedigapScale, "Medigap dataset scale (1.0 = 61K tuples)")
	flag.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "generator seed")
	flag.IntVar(&cfg.Parallelism, "parallel", cfg.Parallelism, "worker-pool size per query (0 = GOMAXPROCS, 1 = sequential)")
	plannerMode := flag.String("planner", "force-sat", "planner mode for every engine the suite builds: force-sat (default; the paper tables measure the WPMaxSAT pipeline), auto, force-rewrite")
	flag.DurationVar(&cfg.Timeout, "timeout", cfg.Timeout, "wall-clock bound per query, e.g. 30s (0 = none)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile at the end of the run to this file")
	listen := flag.String("listen", "", "serve /metrics, /debug/trace, /debug/pprof and /healthz on this address while the suite runs")
	flightDir := flag.String("flight-dir", "", "write flight-recorder bundles for anomalous queries into this directory")
	flag.DurationVar(&cfg.SlowQuery, "slow-query", cfg.SlowQuery, "queries slower than this dump a flight bundle even on success (0 = only timeouts/errors)")
	compare := flag.String("compare", "", "diff this run's records against a BENCH_*.json baseline (time, allocation, and live-heap columns; informational unless -compare-strict)")
	compareStrict := flag.Bool("compare-strict", false, "exit non-zero when -compare flags a deterministic regression (memory growth, answers drift, new timeout; wall-clock stays informational)")
	journalPath := flag.String("journal", "", "append one wide-event JSON line per engine call to this file")
	journalRead := flag.String("journal-read", "", "decode a journal file, print a per-query summary, and exit")
	replay := flag.Bool("replay", false, "replay a query stream against one engine and print a latency percentile table")
	replayFrom := flag.String("replay-from", "", "replay stream source: a journal or a spec file of query names (default: built-in mix)")
	replayN := flag.Int("replay-n", 0, "queries to issue during -replay (0 = one pass over the stream)")
	qps := flag.Float64("qps", 0, "open-loop target arrival rate for -replay (0 = closed loop)")
	replayConc := flag.Int("replay-concurrency", 0, "max in-flight queries during -replay (0 = default 4)")
	target := flag.String("target", "", "replay against a running cavsatd at this base URL instead of in-process; answers are digest-checked against a local execution and the run fails on drift or zero answered queries")
	replayInstance := flag.String("replay-instance", "", "server tenant to query in -target mode (default: the server's sole instance)")
	flag.Parse()
	pm, perr := planner.ParseMode(*plannerMode)
	if perr != nil {
		fmt.Fprintln(os.Stderr, "aggbench:", perr)
		os.Exit(1)
	}
	cfg.Planner = pm

	level := slog.LevelWarn
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)

	if *list {
		fmt.Println(strings.Join(bench.Names(), "\n"))
		return
	}
	if *journalRead != "" {
		if err := printJournalSummary(*journalRead, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "aggbench:", err)
			os.Exit(1)
		}
		return
	}
	var journal *obsv.Journal
	if *journalPath != "" {
		j, err := obsv.OpenJournal(*journalPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aggbench:", err)
			os.Exit(1)
		}
		journal = j
		cfg.Journal = j
		defer func() {
			j.Close()
			logger.Debug("journal closed", "path", j.Path(), "written", j.Written(), "dropped", j.Dropped())
		}()
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aggbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "aggbench:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "aggbench:", err)
			}
		}()
	}
	if *flightDir != "" {
		cfg.OnAnomaly = obsv.DumpDir(*flightDir)
	}
	var metrics *obsv.Registry
	var tracer *obsv.Tracer
	if *trace != "" || *listen != "" {
		tracer = obsv.NewTracer()
	}
	if *listen != "" {
		metrics = obsv.NewRegistry()
		cfg.Metrics = metrics
	}
	r := bench.NewRunner(cfg)
	if tracer != nil {
		r.WithContext(obsv.WithTracer(context.Background(), tracer))
	}
	if *listen != "" {
		srv, err := obsv.Serve(*listen, metrics, tracer, journal)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aggbench:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintln(os.Stderr, "aggbench: debug server on http://"+srv.Addr())
	}

	var err error
	switch {
	case *replay:
		var rep *bench.ReplayReport
		rep, err = r.Replay(bench.ReplayOptions{
			Source:      *replayFrom,
			N:           *replayN,
			QPS:         *qps,
			Concurrency: *replayConc,
			Target:      *target,
			Instance:    *replayInstance,
		}, os.Stdout)
		// In target mode the replay doubles as a correctness gate: a
		// server that answered nothing or answered differently from the
		// local engine fails the run (CI relies on the exit code).
		if err == nil && *target != "" {
			switch {
			case rep.Drift > 0:
				// The server trace ids key the divergent solves in the
				// server's journal and /debug/trace?trace=<id>.
				if len(rep.DriftTraces) > 0 {
					err = fmt.Errorf("replay: %d answers drifted from the local execution (server traces: %s)",
						rep.Drift, strings.Join(rep.DriftTraces, ", "))
				} else {
					err = fmt.Errorf("replay: %d answers drifted from the local execution", rep.Drift)
				}
			case rep.Answered() == 0:
				err = fmt.Errorf("replay: no queries answered (issued %d, errors %d, timeouts %d, shed %d)",
					rep.Issued, rep.Errors, rep.Timeouts, rep.Shed)
			}
		}
	case *exp == "all":
		err = r.All(os.Stdout)
	default:
		err = r.Experiment(*exp, os.Stdout)
	}
	if err != nil {
		if journal != nil {
			journal.Close()
		}
		fmt.Fprintln(os.Stderr, "aggbench:", err)
		os.Exit(1)
	}
	if *jsonDir != "" {
		if err := r.WriteRecords(*jsonDir); err != nil {
			fmt.Fprintln(os.Stderr, "aggbench:", err)
			os.Exit(1)
		}
		logger.Debug("records written", "dir", *jsonDir, "records", len(r.Records()))
	}
	if tracer != nil && *trace != "" {
		out, err := os.Create(*trace)
		if err == nil {
			err = tracer.WriteChromeTrace(out)
			if cerr := out.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "aggbench:", err)
			os.Exit(1)
		}
		logger.Debug("trace written", "path", *trace, "spans", tracer.Len(), "dropped", tracer.Dropped())
	}
	if *compare != "" {
		baseline, err := bench.LoadRecords(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aggbench:", err)
			os.Exit(1)
		}
		rep := bench.CompareRecords(baseline, r.Records(), bench.CompareOptions{})
		rep.Fprint(os.Stderr)
		if *compareStrict && len(rep.GatingRegressions()) > 0 {
			fmt.Fprintln(os.Stderr, "aggbench: -compare-strict: deterministic regressions flagged")
			os.Exit(1)
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aggbench:", err)
			os.Exit(1)
		}
		runtime.GC() // settle the heap so the profile reflects live objects
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "aggbench:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "aggbench:", err)
			os.Exit(1)
		}
		logger.Debug("heap profile written", "path", *memprofile)
	}
}

// printJournalSummary decodes a query journal and prints one row per
// distinct query label: line count, errors, anomalies, and the mean
// total latency. A malformed line fails the whole read (the CI smoke
// step relies on that to catch journal-format regressions).
func printJournalSummary(path string, w io.Writer) error {
	entries, err := obsv.ReadJournalFile(path)
	if err != nil {
		return err
	}
	type agg struct {
		lines, errors, anomalies int
		totalMS                  float64
	}
	byQuery := map[string]*agg{}
	for _, e := range entries {
		a, ok := byQuery[e.Query]
		if !ok {
			a = &agg{}
			byQuery[e.Query] = a
		}
		a.lines++
		if e.Error != "" {
			a.errors++
		}
		if e.Anomaly != "" {
			a.anomalies++
		}
		a.totalMS += e.TotalMS
	}
	var order []string
	for q := range byQuery {
		order = append(order, q)
	}
	sort.Strings(order)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "query\tlines\terrors\tanomalies\tmean ms\n")
	for _, q := range order {
		a := byQuery[q]
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.1f\n", q, a.lines, a.errors, a.anomalies, a.totalMS/float64(a.lines))
	}
	fmt.Fprintf(tw, "total\t%d\t\t\t\n", len(entries))
	return tw.Flush()
}
