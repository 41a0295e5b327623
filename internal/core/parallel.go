package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"aggcavsat/internal/cq"
	"aggcavsat/internal/maxsat"
	"aggcavsat/internal/workpool"
)

// ErrTimeout is returned when an engine call is cut short by its context
// — Options.Timeout, a caller-supplied deadline, or an explicit cancel.
// It is distinct from ErrBudget, which reports that a solver resource
// budget (not wall clock) ran out. Match with errors.Is.
var ErrTimeout = errors.New("core: solve cancelled or timed out")

// ErrBudget is returned when a solver budget (the SAT conflict budget of
// Options.MaxSAT.ConflictBudget, or the MaxHS hitting-set node budget)
// was exhausted before the solve finished. Match with errors.Is.
var ErrBudget = errors.New("core: solver budget exhausted")

// ErrOverflow is returned when a SUM (or a weight, offset or bound of
// its reduction) leaves the int64 range. Match with errors.Is; it is
// the same sentinel as cq.ErrOverflow, which the rewriting route
// returns.
var ErrOverflow = cq.ErrOverflow

// stopCause classifies an aborted SAT call or an abandoned work loop:
// a dead context means cancellation (ErrTimeout); otherwise the solver
// stopped on its own conflict budget (ErrBudget).
func stopCause(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrTimeout, err)
	}
	return ErrBudget
}

// mapSolveErr translates an error from the maxsat layer into the
// package's typed sentinels so callers can distinguish a wall-clock
// timeout from a budget stop with errors.Is; unrelated errors pass
// through unchanged.
func mapSolveErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %v", ErrTimeout, err)
	case errors.Is(err, maxsat.ErrBudget):
		return fmt.Errorf("%w: %v", ErrBudget, err)
	}
	return err
}

// parallelism resolves Options.Parallelism: 0 (or negative) means
// GOMAXPROCS, anything else is taken as given (1 forces sequential).
func (e *Engine) parallelism() int {
	if p := e.opts.Parallelism; p > 0 {
		return p
	}
	return runtime.GOMAXPROCS(0)
}

// forEach is workpool.ForEach with the package's error mapping: when
// the parent context is dead, the typed ErrTimeout (via stopCause) wins
// over the bare context error or whichever per-item error happened to
// be recorded first, so callers see ErrTimeout rather than an arbitrary
// casualty of the cancellation.
func forEach(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	err := workpool.ForEach(ctx, workers, n, fn)
	if err != nil && ctx.Err() != nil {
		return stopCause(ctx)
	}
	return err
}
