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
//	-trace out.json   Chrome trace-event file covering the whole run
//	-flight-dir dir   write flight-recorder bundles (recent solver
//	                  events + journal line) for queries that time out or
//	                  exceed -slow-query
//	-slow-query D     queries slower than D dump a flight bundle even on
//	                  success (0 = only timeouts/errors)
//	-journal f.jsonl  append one wide-event JSON line per engine call
//	                  (bounded, non-blocking writer; `tail -f` it to
//	                  follow a long run)
//	-journal-read f   decode a journal file, print a per-query summary
//	                  table, and exit (non-zero on malformed lines)
//	-v                debug logging on stderr (where the journal and
//	                  trace went, how many lines and spans they hold)
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
//	                  instance: a default cavsatd -dbgen matches a default
//	                  aggbench (both use the demo sf, inconsistency and
//	                  seed).
//	-replay-instance  server tenant name for -target (default: the
//	                  server's sole instance)
//
// Concurrency and timeouts:
//
//	-planner M        planner mode for every engine the suite builds:
//	                  force-sat (default — the paper tables measure the
//	                  SAT pipeline), auto (the same solver route), or
//	                  force-rewrite (the ConQuer-style rewriting)
//	-parallel N       worker-pool size inside each measured query
//	                  (0 = GOMAXPROCS, 1 = sequential); parallel runs
//	                  produce identical answers but per-phase times sum
//	                  worker durations and can exceed wall clock
//	-timeout D        wall-clock bound per query (e.g. 30s); expired
//	                  queries count in the experiment's timeout column
//	-cpuprofile f     write a pprof CPU profile of the whole run to f
//	-memprofile f     write a pprof heap profile at the end of the run
//
// Every output file is opened before the first experiment, and the
// journal, trace and profiles are flushed and closed even when an
// experiment fails or SIGINT/SIGTERM interrupts the run (the command
// still exits non-zero).
package main

import (
	"context"
	"errors"
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
	"aggcavsat/internal/cli"
	"aggcavsat/internal/obsv"
)

func main() { cli.Main("aggbench", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	cfg := bench.DefaultConfig()
	fs := cli.NewFlagSet("aggbench", stderr)
	exp := fs.String("exp", "all", "experiment to run ('all' or one of -list)")
	list := fs.Bool("list", false, "list experiment names and exit")
	fs.Float64Var(&cfg.SFSmall, "sf-small", cfg.SFSmall, "scale factor standing in for the paper's 1 GB repairs")
	fs.Float64Var(&cfg.SFMedium, "sf-medium", cfg.SFMedium, "scale factor for 3 GB")
	fs.Float64Var(&cfg.SFLarge, "sf-large", cfg.SFLarge, "scale factor for 5 GB")
	fs.Float64Var(&cfg.MedigapScale, "medigap-scale", cfg.MedigapScale, "Medigap dataset scale (1.0 = 61K tuples)")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile at the end of the run to this file")
	journalRead := fs.String("journal-read", "", "decode a journal file, print a per-query summary, and exit")
	replay := fs.Bool("replay", false, "replay a query stream against one engine and print a latency percentile table")
	replayFrom := fs.String("replay-from", "", "replay stream source: a journal or a spec file of query names (default: built-in mix)")
	replayN := fs.Int("replay-n", 0, "queries to issue during -replay (0 = one pass over the stream)")
	qps := fs.Float64("qps", 0, "open-loop target arrival rate for -replay (0 = closed loop)")
	replayConc := fs.Int("replay-concurrency", 0, "max in-flight queries during -replay (0 = default 4)")
	target := fs.String("target", "", "replay against a running cavsatd at this base URL instead of in-process; answers are digest-checked against a local execution and the run fails on drift or zero answered queries")
	replayInstance := fs.String("replay-instance", "", "server tenant to query in -target mode (default: the server's sole instance)")
	// The paper tables measure the WPMaxSAT pipeline, so the suite's
	// planner defaults to force-sat.
	f := cli.Defaults()
	f.Planner = "force-sat"
	f.Register(fs, cli.Seed, cli.Parallel, cli.Planner, cli.Timeout,
		cli.Trace, cli.FlightDir, cli.SlowQuery, cli.Journal, cli.Verbose)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *list {
		fmt.Fprintln(stdout, strings.Join(bench.Names(), "\n"))
		return nil
	}
	if *journalRead != "" {
		return printJournalSummary(*journalRead, stdout)
	}

	sess, err := f.Open(stderr, slog.LevelWarn)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, sess.Close()) }()
	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			pf.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			err = errors.Join(err, pf.Close())
		}()
	}
	if *memprofile != "" {
		mf, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC() // settle the heap so the profile reflects live objects
			err = errors.Join(err, pprof.WriteHeapProfile(mf), mf.Close())
		}()
	}
	opts := sess.Options()
	cfg.Seed = f.Seed
	cfg.Parallelism, cfg.Timeout, cfg.Planner = opts.Parallelism, opts.Timeout, opts.Planner
	cfg.SlowQuery, cfg.OnAnomaly, cfg.Journal = opts.SlowQuery, opts.OnAnomaly, opts.Journal
	r := bench.NewRunner(cfg).WithContext(sess.Context(ctx))

	switch {
	case *replay:
		rep, err := r.Replay(bench.ReplayOptions{
			Source:      *replayFrom,
			N:           *replayN,
			QPS:         *qps,
			Concurrency: *replayConc,
			Target:      *target,
			Instance:    *replayInstance,
		}, stdout)
		if err != nil || *target == "" {
			return err
		}
		// In target mode the replay doubles as a correctness gate: a
		// server that answered nothing or answered differently from the
		// local engine fails the run (CI relies on the exit code).
		switch {
		case rep.Drift > 0 && len(rep.DriftTraces) > 0:
			// The server trace ids key the divergent solves in the
			// server's journal and /debug/trace?trace=<id>.
			return fmt.Errorf("replay: %d answers drifted from the local execution (server traces: %s)",
				rep.Drift, strings.Join(rep.DriftTraces, ", "))
		case rep.Drift > 0:
			return fmt.Errorf("replay: %d answers drifted from the local execution", rep.Drift)
		case rep.Answered() == 0:
			return fmt.Errorf("replay: no queries answered (issued %d, errors %d, timeouts %d, shed %d)",
				rep.Issued, rep.Errors, rep.Timeouts, rep.Shed)
		}
		return nil
	case *exp == "all":
		return r.All(stdout)
	default:
		return r.Experiment(*exp, stdout)
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
