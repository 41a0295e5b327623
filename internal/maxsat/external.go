package maxsat

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"aggcavsat/internal/cnf"
	"aggcavsat/internal/obsv"
)

// solveExternal writes the formula in DIMACS WCNF and runs an external
// MaxSAT solver binary (MaxHS-compatible output: "s OPTIMUM FOUND",
// "o <falsified-weight>" lines, and a "v ..." model line in either the
// space-separated-literals or the 0/1-string format).
//
// This mirrors the paper's architecture, where AggCAvSAT invokes MaxHS
// v3.2 as a separate process.
func solveExternal(ctx context.Context, f *cnf.Formula, opts Options) (Result, error) {
	_, sp := obsv.StartSpan(ctx, "maxsat.external", obsv.String("solver", opts.SolverPath))
	defer sp.End()
	tmp, err := os.CreateTemp("", "aggcavsat-*.wcnf")
	if err != nil {
		return Result{}, err
	}
	defer os.Remove(tmp.Name())
	if err := f.WriteWCNF(tmp); err != nil {
		tmp.Close()
		return Result{}, fmt.Errorf("maxsat: write wcnf: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return Result{}, err
	}

	args := append(append([]string{}, opts.SolverArgs...), tmp.Name())
	cmd := exec.CommandContext(ctx, opts.SolverPath, args...)
	// On cancellation CommandContext kills the process; WaitDelay bounds
	// how long Run then waits for I/O pipes to drain before giving up on
	// a child that ignores the kill (e.g. one that re-spawned itself).
	cmd.WaitDelay = 5 * time.Second
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	// MaxSAT solvers signal their result on stdout and often exit with
	// nonzero status codes by convention (10/20/30), so run errors are
	// only fatal when no result line is present.
	runErr := cmd.Run()
	if ctxErr := ctx.Err(); ctxErr != nil {
		// A killed solver may have emitted partial (even well-formed)
		// output; the cancellation takes precedence over parsing it.
		return Result{}, fmt.Errorf("maxsat: external solver terminated: %w", ctxErr)
	}

	res, parseErr := ParseSolverOutput(f, out.Bytes())
	if parseErr != nil {
		if runErr != nil {
			return Result{}, fmt.Errorf("maxsat: external solver failed: %v (output: %w)", runErr, parseErr)
		}
		return Result{}, parseErr
	}
	return res, nil
}

// ParseSolverOutput parses MaxSAT-evaluation-style solver output.
// Exported for tests and for callers that manage the process themselves.
func ParseSolverOutput(f *cnf.Formula, output []byte) (Result, error) {
	sc := bufio.NewScanner(bytes.NewReader(output))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<26)
	var (
		status    string
		lastO     int64 = -1
		modelLits []cnf.Lit
		modelBits string
	)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "s "):
			status = strings.TrimSpace(line[2:])
		case strings.HasPrefix(line, "o "):
			v, err := strconv.ParseInt(strings.TrimSpace(line[2:]), 10, 64)
			if err == nil {
				lastO = v
			}
		case strings.HasPrefix(line, "v "):
			body := strings.TrimSpace(line[2:])
			if isBitString(body) {
				modelBits += body
				continue
			}
			for _, tok := range strings.Fields(body) {
				n, err := strconv.Atoi(tok)
				if err != nil {
					return Result{}, fmt.Errorf("maxsat: bad literal %q in v-line", tok)
				}
				if n != 0 {
					modelLits = append(modelLits, cnf.Lit(n))
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return Result{}, err
	}
	switch status {
	case "UNSATISFIABLE":
		return Result{Satisfiable: false, SATCalls: 1}, nil
	case "OPTIMUM FOUND":
	default:
		return Result{}, fmt.Errorf("maxsat: external solver reported %q", status)
	}
	model := make([]bool, f.NumVars()+1)
	switch {
	case modelBits != "":
		for i := 0; i < len(modelBits) && i < f.NumVars(); i++ {
			model[i+1] = modelBits[i] == '1'
		}
	case len(modelLits) > 0:
		for _, l := range modelLits {
			if l.Var() <= f.NumVars() {
				model[l.Var()] = l.Positive()
			}
		}
	default:
		return Result{}, fmt.Errorf("maxsat: external solver produced no model")
	}
	// The model comes from an untrusted subprocess: validate it instead
	// of trusting the invariant the built-in algorithms maintain.
	opt, err := evalModel(f, model)
	if err != nil {
		return Result{}, fmt.Errorf("maxsat: external solver returned an invalid model: %w", err)
	}
	res := Result{
		Satisfiable:     true,
		Optimum:         opt,
		FalsifiedWeight: f.TotalSoftWeight() - opt,
		Model:           model,
		SATCalls:        1,
	}
	if lastO >= 0 && lastO != res.FalsifiedWeight {
		return Result{}, fmt.Errorf("maxsat: solver reported cost %d but model falsifies %d", lastO, res.FalsifiedWeight)
	}
	return res, nil
}

func isBitString(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r != '0' && r != '1' {
			return false
		}
	}
	return true
}
