package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"aggcavsat"
	"aggcavsat/internal/constraints"
	"aggcavsat/internal/db"
	"aggcavsat/internal/server"
)

// refTimeout bounds one reference execution. Templates known to exhaust
// the solver budget (satHeavy) are never sent to the solver at all,
// because the budget, not this deadline, is what stops them.
const refTimeout = 5 * time.Second

// satHeavy lists the templates whose variants exhaust the MaxHS node
// budget on the SAT route at sf 0.01 (Q10′ runs for tens of seconds
// before giving up), so the benchmark never routes them to the solver.
var satHeavy = map[string]bool{"Q10'": true}

// refCheck is what the answer check needs to know about one distinct
// statement: its text, its template, and the route that served it.
type refCheck struct {
	SQL      string
	Template string
	Route    string
}

// referenceDigests computes, untimed and outside the measured engine, a
// reference answer digest for each statement over one data version. The
// reference comes from the other planner route wherever that route
// answers (the solver for rewrite-served statements, the rewriting for
// SAT-served ones); otherwise from a sequential (Parallelism 1) run of
// the workload's own engine options. fallback counts the statements that
// had no independent route.
func referenceDigests(ctx context.Context, in *db.Instance, dcs []constraints.DC, mode aggcavsat.PlannerMode,
	checks []refCheck) (refs map[string]string, fallback int, err error) {
	open := func(pm aggcavsat.PlannerMode, par int) (*aggcavsat.System, error) {
		return aggcavsat.Open(in, aggcavsat.Options{DenialConstraints: dcs, Planner: pm, Parallelism: par, Timeout: refTimeout})
	}
	satSys, err := open(aggcavsat.PlannerForceSAT, 0)
	if err != nil {
		return nil, 0, err
	}
	rwSys, err := open(aggcavsat.PlannerForceRewrite, 0)
	if err != nil {
		return nil, 0, err
	}
	seqSys, err := open(mode, 1)
	if err != nil {
		return nil, 0, err
	}
	refs = map[string]string{}
	for _, c := range checks {
		var other *aggcavsat.System
		switch {
		case c.Route == "rewrite" && !satHeavy[c.Template]:
			other = satSys
		case c.Route == "sat" && len(dcs) == 0:
			other = rwSys
		}
		if other != nil {
			if res, err := other.QueryContext(ctx, c.SQL); err == nil {
				refs[c.SQL] = server.BuildResponse(res).Digest
				continue
			}
		}
		fallback++
		res, err := seqSys.QueryContext(ctx, c.SQL)
		if err != nil {
			return nil, 0, fmt.Errorf("reference for %s: %w", c.Template, err)
		}
		refs[c.SQL] = server.BuildResponse(res).Digest
	}
	return refs, fallback, nil
}

// outcome classifies one attempted statement.
type outcome int

const (
	outcomeOK outcome = iota
	outcomeError
	outcomeTimeout
	outcomeShed
	outcomeMismatch
)

// classify maps a call error onto the failure kinds the benchmark
// counts: 429 sheds, deadline or budget expiries, and everything else.
func classify(err error) outcome {
	var re *server.RemoteError
	switch {
	case err == nil:
		return outcomeOK
	case errors.As(err, &re) && re.Overloaded():
		return outcomeShed
	case errors.As(err, &re) && re.Timeout(),
		errors.Is(err, aggcavsat.ErrTimeout), errors.Is(err, aggcavsat.ErrBudget),
		errors.Is(err, context.DeadlineExceeded):
		return outcomeTimeout
	default:
		return outcomeError
	}
}
