// Command wcnfsolve is a standalone Weighted Partial MaxSAT solver for
// DIMACS WCNF files, speaking the MaxSAT-evaluation output convention
// ("o <cost>", "s OPTIMUM FOUND" / "s UNSATISFIABLE", "v <literals>").
//
//	wcnfsolve [-progress] [-timeout 30s] problem.wcnf
//
// It runs the built-in MaxHS-style solver through maxsat.SolveContext,
// the path the engine takes too; when an exact hitting-set search
// exhausts its node budget the solve falls back to RC2.
//
// It doubles as a drop-in "external solver" for aggcavsat itself
// (Options.ExternalSolverPath), which closes the loop on the paper's
// process-level MaxHS integration without shipping a binary. With
// -timeout the search is interrupted cooperatively at the deadline and
// the command exits with an error instead of an optimum; SIGINT and
// SIGTERM interrupt it the same way.
//
// Exit status: 30 with "s OPTIMUM FOUND", 20 with "s UNSATISFIABLE"
// (the MaxSAT-evaluation convention), 2 on a usage error, 1 on any
// other failure.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"

	"aggcavsat/internal/cli"
	"aggcavsat/internal/cnf"
	"aggcavsat/internal/maxsat"
)

// The MaxSAT-evaluation exit statuses.
const (
	exitUnsat   = cli.ExitCode(20)
	exitOptimum = cli.ExitCode(30)
)

func main() { cli.Main("wcnfsolve", run) }

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("wcnfsolve", stderr)
	progress := fs.Bool("progress", false, "print periodic progress lines (stderr)")
	progressEvery := fs.Int64("progress-every", maxsat.DefaultProgressEvery, "conflicts between progress lines")
	var f cli.Flags
	f.Register(fs, cli.Timeout)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return cli.Usage(stderr, "wcnfsolve [-progress] [-timeout 30s] problem.wcnf")
	}
	file, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	formula, err := cnf.ReadWCNF(file)
	file.Close()
	if err != nil {
		return err
	}

	opts := maxsat.Options{}
	if *progress {
		opts.ProgressEvery = *progressEvery
		opts.Progress = progressPrinter(stderr)
	}
	if f.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.Timeout)
		defer cancel()
	}
	res, err := maxsat.SolveContext(ctx, formula, opts)
	if err != nil {
		return err
	}

	if !res.Satisfiable {
		fmt.Fprintln(stdout, "s UNSATISFIABLE")
		return exitUnsat
	}
	fmt.Fprintf(stdout, "c solver: %v, sat calls: %d, conflicts: %d\n", res.Algorithm, res.SATCalls, res.Conflicts)
	fmt.Fprintf(stdout, "o %d\n", res.FalsifiedWeight)
	fmt.Fprintln(stdout, "s OPTIMUM FOUND")
	var sb strings.Builder
	sb.WriteString("v")
	for v := 1; v <= formula.NumVars(); v++ {
		lit := v
		if !res.Model[v] {
			lit = -v
		}
		fmt.Fprintf(&sb, " %d", lit)
	}
	sb.WriteString(" 0")
	fmt.Fprintln(stdout, sb.String())
	return exitOptimum
}

// progressPrinter returns a callback rendering MiniSat-style periodic
// progress lines on w: one row per report, with the bound bracket
// [lb, ub] on the optimum falsified weight.
func progressPrinter(w io.Writer) maxsat.ProgressFunc {
	fmt.Fprintln(w, "c ============================[ search progress ]=============================")
	fmt.Fprintln(w, "c |     phase    | sat calls | conflicts |   learnt |  trail |      lb |      ub |")
	fmt.Fprintln(w, "c ============================================================================")
	return func(p maxsat.ProgressInfo) {
		fmt.Fprintf(w, "c | %-12s | %9d | %9d | %8d | %6d | %7s | %7s |\n",
			p.Phase, p.SATCalls, p.Conflicts, p.LearntLive, p.TrailDepth,
			bound(p.LowerBound), bound(p.UpperBound))
	}
}

func bound(v int64) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%d", v)
}
