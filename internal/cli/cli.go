// Package cli is the shared shell of the binaries: it declares each
// engine, telemetry and demo-instance flag once (name, default, help),
// opens and closes the outputs those flags name, maps the engine flags
// onto facade options, and runs a binary's run function under the
// process's arguments, stdio, signals and exit status.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"aggcavsat"
	"aggcavsat/internal/obsv"
	"aggcavsat/internal/tpch"
)

// Flag names. Each binary registers the subset it takes.
const (
	Planner        = "planner"
	Parallel       = "parallel"
	Timeout        = "timeout"
	ExternalSolver = "external-solver"
	Journal        = "journal"
	Trace          = "trace"
	Verbose        = "v"
	SF             = "sf"
	Inconsistency  = "inconsistency"
	Seed           = "seed"
)

// Flags holds the shared flag values. A field's value when Register is
// called becomes the flag's default.
type Flags struct {
	Planner        string
	Parallel       int
	Timeout        time.Duration
	ExternalSolver string
	Journal        string
	Trace          string
	Verbose        bool
	SF             float64
	Inconsistency  float64
	Seed           uint64
}

// Defaults returns the shared defaults: the auto planner and the demo
// TPC-H instance's scale factor, inconsistency and seed.
func Defaults() Flags {
	return Flags{
		Planner:       "auto",
		SF:            tpch.DemoSF,
		Inconsistency: tpch.DemoInconsistency,
		Seed:          tpch.DemoSeed,
	}
}

// Register declares the named flags on fs, bound to f's fields.
func (f *Flags) Register(fs *flag.FlagSet, names ...string) {
	for _, name := range names {
		switch name {
		case Planner:
			fs.StringVar(&f.Planner, name, f.Planner, "query planner mode: auto (the solver route, for every query), force-sat (the same route), force-rewrite (the ConQuer-style rewriting; fails outside its class)")
		case Parallel:
			fs.IntVar(&f.Parallel, name, f.Parallel, "solver worker-pool size per query (0 = GOMAXPROCS, 1 = sequential)")
		case Timeout:
			fs.DurationVar(&f.Timeout, name, f.Timeout, "wall-clock bound per query or solve, e.g. 30s (0 = none)")
		case ExternalSolver:
			fs.StringVar(&f.ExternalSolver, name, f.ExternalSolver, "path to a MaxHS-compatible MaxSAT binary to use instead of the built-in MaxHS")
		case Journal:
			fs.StringVar(&f.Journal, name, f.Journal, "append one wide-event JSON line per engine call to this file")
		case Trace:
			fs.StringVar(&f.Trace, name, f.Trace, "write a Chrome trace-event JSON file of the run")
		case Verbose:
			fs.BoolVar(&f.Verbose, name, f.Verbose, "debug logging, including solver progress")
		case SF:
			fs.Float64Var(&f.SF, name, f.SF, "scale factor of the generated TPC-H (or PDBench) instance")
		case Inconsistency:
			fs.Float64Var(&f.Inconsistency, name, f.Inconsistency, "percent of key-violating tuples injected into the generated TPC-H instance")
		case Seed:
			fs.Uint64Var(&f.Seed, name, f.Seed, "generator seed")
		default:
			panic("cli: unknown flag " + name)
		}
	}
}

// Session holds what the flags name, opened before any work so a bad
// path fails at once: the logger, the journal, and the trace file and
// its tracer. Close flushes and closes them on every exit path.
type Session struct {
	Logger  *slog.Logger
	Journal *obsv.Journal
	Tracer  *obsv.Tracer
	flags   Flags
	planner aggcavsat.PlannerMode
	trace   *os.File
}

// Open parses the planner mode and opens the outputs the flags name.
// The logger writes to stderr at level, or at debug level under -v.
func (f Flags) Open(stderr io.Writer, level slog.Level) (s *Session, err error) {
	if f.Verbose {
		level = slog.LevelDebug
	}
	s = &Session{Logger: slog.New(slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: level})), flags: f}
	defer func() {
		if err != nil {
			err, s = errors.Join(err, s.Close()), nil
		}
	}()
	if f.Planner != "" {
		if s.planner, err = aggcavsat.ParsePlannerMode(f.Planner); err != nil {
			return s, err
		}
	}
	if f.Journal != "" {
		if s.Journal, err = obsv.OpenJournal(f.Journal); err != nil {
			return s, err
		}
	}
	if f.Trace != "" {
		if s.trace, err = os.Create(f.Trace); err != nil {
			return s, err
		}
		s.Tracer = obsv.NewTracer()
	}
	return s, nil
}

// Context installs the session's tracer, if any, on ctx.
func (s *Session) Context(ctx context.Context) context.Context {
	if s.Tracer == nil {
		return ctx
	}
	return obsv.WithTracer(ctx, s.Tracer)
}

// Options is the one mapping from the engine flags onto facade options.
func (s *Session) Options() aggcavsat.Options {
	opts := aggcavsat.Options{
		ExternalSolverPath: s.flags.ExternalSolver,
		Parallelism:        s.flags.Parallel,
		Timeout:            s.flags.Timeout,
		Journal:            s.Journal,
		Planner:            s.planner,
	}
	if s.flags.Verbose {
		opts.Progress = func(p aggcavsat.SolverProgress) {
			s.Logger.Debug("solver progress",
				"alg", p.Algorithm.String(), "phase", p.Phase, "iter", p.Iteration,
				"sat_calls", p.SATCalls, "conflicts", p.Conflicts,
				"learnt", p.LearntLive, "trail", p.TrailDepth,
				"lb", p.LowerBound, "ub", p.UpperBound)
		}
	}
	return opts
}

// Close writes the trace file and closes the journal, returning every
// error met.
func (s *Session) Close() error {
	var errs []error
	if s.trace != nil {
		errs = append(errs, s.Tracer.WriteChromeTrace(s.trace), s.trace.Close())
		s.Logger.Debug("trace written", "path", s.trace.Name(), "spans", s.Tracer.Len(), "dropped", s.Tracer.Dropped())
	}
	if s.Journal != nil {
		errs = append(errs, s.Journal.Close())
		s.Logger.Debug("journal closed", "path", s.Journal.Path(),
			"written", s.Journal.Written(), "dropped", s.Journal.Dropped())
	}
	return errors.Join(errs...)
}

// ExitCode is an error that only carries a process exit status: 2 for a
// usage error whose message is already printed, or a status a binary's
// output contract defines (wcnfsolve's 20 and 30).
type ExitCode int

func (c ExitCode) Error() string { return fmt.Sprintf("exit status %d", int(c)) }

// Parse parses args into fs, turning a malformed command line into
// ExitCode(2); fs has already printed the problem and the usage.
func Parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return ExitCode(2)
}

// Usage prints a usage line to w and returns ExitCode(2).
func Usage(w io.Writer, usage string) error {
	fmt.Fprintln(w, "usage:", usage)
	return ExitCode(2)
}

// Main runs run with the process's arguments and stdio under a context
// cancelled by SIGINT or SIGTERM, and exits with its status: 0 on
// success or -help, the code of an ExitCode, else 1 after printing the
// error.
func Main(name string, run func(ctx context.Context, args []string, stdout, stderr io.Writer) error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	var code ExitCode
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case errors.As(err, &code):
		os.Exit(int(code))
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	os.Exit(1)
}

// NewFlagSet returns an empty flag set for the named binary that reports
// parse errors to stderr instead of exiting.
func NewFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}
