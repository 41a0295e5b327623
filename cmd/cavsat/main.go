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
//	-flight-dir dir   write a flight-recorder bundle (recent solver
//	                  events + journal line) into dir when the query times
//	                  out, fails, or exceeds -slow-query
//	-slow-query D     treat queries slower than D as anomalies worth a
//	                  flight dump (e.g. 5s; 0 = only errors/timeouts)
//	-v                debug logging (log/slog) on stderr, including
//	                  periodic solver progress
//
// Every output file is opened before the query runs, so a bad path fails
// at once, and the journal and trace file are flushed and closed even
// when the query fails or times out (the command still exits non-zero).
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
//	                  on expiry, or on SIGINT/SIGTERM, the solve is
//	                  interrupted and the command exits with an error
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"text/tabwriter"
	"time"

	"aggcavsat"
	"aggcavsat/internal/cli"
	"aggcavsat/internal/server"
)

func main() { cli.Main("cavsat", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs := cli.NewFlagSet("cavsat", stderr)
	dataDir := fs.String("data", ".", "directory with schema.txt and <relation>.csv files")
	stats := fs.Bool("stats", false, "print a per-phase statistics table")
	explain := fs.Bool("explain", false, "print a per-solve explain report (code paths, caches, components)")
	explainJSON := fs.Bool("explain-json", false, "print the explain report as JSON")
	f := cli.Defaults()
	f.Register(fs, cli.Planner, cli.ExternalSolver, cli.Parallel, cli.Timeout,
		cli.Journal, cli.Trace, cli.FlightDir, cli.SlowQuery, cli.Verbose)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return cli.Usage(stderr, `cavsat [-data dir] "SELECT ..."`)
	}

	sess, err := f.Open(stderr, slog.LevelWarn)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, sess.Close()) }()
	opts := sess.Options()
	opts.Explain = *explain || *explainJSON

	loadStart := time.Now()
	sys, in, _, snap, err := server.LoadTenantDir(*dataDir, opts)
	if err != nil {
		return err
	}
	if snap != nil {
		defer snap.Close()
	}
	sess.Logger.Debug("database loaded", "dir", *dataDir, "snapshot", snap != nil,
		"facts", in.NumFacts(), "elapsed", time.Since(loadStart))

	res, err := sys.QueryContext(sess.Context(ctx), fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, strings.Join(res.Columns, " | "))
	for _, row := range res.Rows {
		var cells []string
		for _, v := range row.Key {
			cells = append(cells, v.String())
		}
		for _, rng := range row.Ranges {
			cells = append(cells, aggcavsat.FormatRange(rng))
		}
		fmt.Fprintln(stdout, strings.Join(cells, " | "))
	}
	if *stats {
		printStats(stderr, res.Stats)
	}
	for _, ex := range res.Explains {
		if *explainJSON {
			enc := json.NewEncoder(stderr)
			enc.SetIndent("", "  ")
			if err := enc.Encode(ex); err != nil {
				return err
			}
			continue
		}
		fmt.Fprintln(stderr)
		if err := ex.WriteTable(stderr); err != nil {
			return err
		}
	}
	return nil
}

// printStats renders the per-phase breakdown table.
func printStats(w io.Writer, st aggcavsat.Stats) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
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
	fmt.Fprintf(tw, "closed-form components\t%d\t\n", st.ClosedFormComponents)
	fmt.Fprintf(tw, "folded assignments\t%d\t\n", st.FoldedAssignments)
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
