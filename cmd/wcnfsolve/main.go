// Command wcnfsolve is a standalone Weighted Partial MaxSAT solver for
// DIMACS WCNF files, speaking the MaxSAT-evaluation output convention
// ("o <cost>", "s OPTIMUM FOUND" / "s UNSATISFIABLE", "v <literals>").
//
//	wcnfsolve [-alg maxhs|rc2|lsu] [-timeout 30s] problem.wcnf
//
// The hard clauses are loaded into one solver base and every algorithm
// run — including the MaxHS→RC2 fallback — starts from a clone of it.
//
// It doubles as a drop-in "external solver" for aggcavsat itself
// (Options.ExternalSolverPath), which closes the loop on the paper's
// process-level MaxHS integration without shipping a binary. With
// -timeout the search is interrupted cooperatively at the deadline and
// the command exits with an error instead of an optimum.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"aggcavsat/internal/cnf"
	"aggcavsat/internal/maxsat"
)

func main() {
	alg := flag.String("alg", "maxhs", "algorithm: maxhs, rc2, lsu")
	progress := flag.Bool("progress", false, "print periodic progress lines (stderr)")
	progressEvery := flag.Int64("progress-every", maxsat.DefaultProgressEvery, "conflicts between progress lines")
	timeout := flag.Duration("timeout", 0, "wall-clock bound for the solve, e.g. 30s (0 = none)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: wcnfsolve [-alg maxhs|rc2|lsu] [-progress] [-timeout 30s] problem.wcnf")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	fatalIf(err)
	formula, err := cnf.ReadWCNF(f)
	f.Close()
	fatalIf(err)

	opts := maxsat.Options{}
	switch *alg {
	case "maxhs":
		opts.Algorithm = maxsat.AlgMaxHS
	case "rc2":
		opts.Algorithm = maxsat.AlgRC2
	case "lsu":
		opts.Algorithm = maxsat.AlgLSU
	default:
		fatalIf(fmt.Errorf("unknown algorithm %q", *alg))
	}
	if *progress {
		opts.ProgressEvery = *progressEvery
		opts.Progress = progressPrinter()
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// One shared solver base: the MaxHS→RC2 fallback forks a clone
	// instead of re-adding every hard clause.
	res, err := maxsat.NewInstance(formula, nil, opts).SolveMin(ctx)
	fatalIf(err)

	if !res.Satisfiable {
		fmt.Println("s UNSATISFIABLE")
		os.Exit(20)
	}
	fmt.Printf("c sat calls: %d, conflicts: %d\n", res.SATCalls, res.Conflicts)
	fmt.Printf("o %d\n", res.FalsifiedWeight)
	fmt.Println("s OPTIMUM FOUND")
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
	fmt.Println(sb.String())
	os.Exit(30)
}

// progressPrinter returns a callback rendering MiniSat-style periodic
// progress lines on stderr: one row per report, with the bound bracket
// [lb, ub] on the optimum falsified weight.
func progressPrinter() maxsat.ProgressFunc {
	fmt.Fprintln(os.Stderr, "c ============================[ search progress ]=============================")
	fmt.Fprintln(os.Stderr, "c |     phase    | sat calls | conflicts |   learnt |  trail |      lb |      ub |")
	fmt.Fprintln(os.Stderr, "c ============================================================================")
	return func(p maxsat.ProgressInfo) {
		fmt.Fprintf(os.Stderr, "c | %-12s | %9d | %9d | %8d | %6d | %7s | %7s |\n",
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

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "wcnfsolve:", err)
		os.Exit(1)
	}
}
