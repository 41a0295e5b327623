package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"aggcavsat"
	"aggcavsat/internal/conquer"
	"aggcavsat/internal/constraints"
	"aggcavsat/internal/cq"
	"aggcavsat/internal/db"
	"aggcavsat/internal/planner"
	"aggcavsat/internal/sqlparse"
)

// layerMetric names one per-layer figure of the traced run.
type layerMetric struct{ name, unit string }

// perLayer lists the per-layer metrics in report order; BENCHMARK.json
// declares the same names. A layer that does no work on a workload
// reports 0 there.
var perLayer = []layerMetric{
	{"server.cache_hit_ratio", "ratio"},
	{"server.hit_ms", "ms"},
	{"server.transport_ms", "ms"},
	{"server.shed", "count"},
	{"server.attach_ms", "ms"},
	{"sqlparse.parse_us", "us"},
	{"planner.decide_us", "us"},
	{"planner.rewrite_share", "ratio"},
	{"conquer.execute_ms", "ms"},
	{"conquer.index_build_ms", "ms"},
	{"cq.witness_ms", "ms"},
	{"cq.witnesses", "count"},
	{"db.open_ms", "ms"},
	{"db.key_groups_ms", "ms"},
	{"db.instance_mb", "MiB"},
	{"constraints.violations_ms", "ms"},
	{"constraints.violations", "count"},
	{"core.encode_ms", "ms"},
	{"core.cnf_vars", "count"},
	{"core.cnf_clauses", "count"},
	{"core.consistent_part_skips", "count"},
	{"core.alloc_mb", "MiB"},
	{"core.parallel_speedup", "ratio"},
	{"core.unattributed_share", "ratio"},
	{"maxsat.solve_ms", "ms"},
	{"maxsat.runs", "count"},
	{"sat.calls", "count"},
	{"sat.conflicts", "count"},
	{"obsv.trace_overhead", "ratio"},
}

// layerInput is the data a workload's per-layer probes run on.
type layerInput struct {
	in   *db.Instance
	dcs  []constraints.DC
	mode aggcavsat.PlannerMode
	snap string // snapshot of the same data, for the db probes
}

// freshOpens is how many times the db and constraints probes open the
// snapshot anew (each open defeats every per-instance memo).
const freshOpens = 3

// probeLayers times each layer's public entry point on the workload's
// statements, one trace per statement, and reads the engine's own
// counters from the Stats and Explain reports the facade returns.
func probeLayers(ctx context.Context, li layerInput, stmts []Statement, tr *tracer) (map[string]float64, error) {
	m := map[string]float64{}
	schema := li.in.Schema()
	pl := planner.New(li.in, li.mode, len(li.dcs) > 0)
	ix := conquer.NewIndexes(li.in)
	ev := cq.NewEvaluator(li.in)
	ev.SetParallelism(nproc)
	opts := aggcavsat.Options{DenialConstraints: li.dcs, Planner: li.mode, Parallelism: nproc, Explain: true}
	sys, err := aggcavsat.Open(li.in, opts)
	if err != nil {
		return nil, err
	}
	opts.Parallelism = 1
	seq, err := aggcavsat.Open(li.in, opts)
	if err != nil {
		return nil, err
	}

	var parseUS, decideUS, execMS, buildMS, witMS []float64
	var st stats
	var seqWall, seqPhases time.Duration
	for _, s := range stmts {
		trace := tr.newTrace()
		root := tr.start(trace, nil, "bench", "probe")
		var trn *sqlparse.Translation
		d := tr.timed(trace, root, "sqlparse", "ParseAndTranslate", func() {
			trn, err = sqlparse.ParseAndTranslate(s.SQL, schema)
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Template, err)
		}
		parseUS = append(parseUS, float64(d.Nanoseconds())/1e3)
		var decide time.Duration
		for _, agg := range trn.Aggs {
			q := agg.Query.BuildHead()
			var dec planner.Decision
			decide += tr.timed(trace, root, "planner", "Planner.Decide", func() { dec = pl.Decide(q) })
			plan := dec.Plan
			if plan == nil && len(li.dcs) == 0 {
				// Forced to the solver: time the rewriting anyway wherever
				// the query is in its class.
				plan, _ = conquer.Analyze(schema, q)
			}
			if plan != nil {
				if len(buildMS) < freshOpens {
					d := tr.timed(trace, root, "conquer", "Plan.Execute(fresh indexes)", func() {
						_, err = plan.Execute(ctx, li.in, conquer.NewIndexes(li.in), nproc)
					})
					if err == nil {
						buildMS = append(buildMS, ms(d))
					}
				}
				d := tr.timed(trace, root, "conquer", "Plan.Execute", func() {
					_, err = plan.Execute(ctx, li.in, ix, nproc)
				})
				switch {
				case err == nil:
					execMS = append(execMS, ms(d))
				case !errors.Is(err, conquer.ErrNotInClass):
					return nil, err
				}
			}
			var bag []cq.Witness
			d := tr.timed(trace, root, "cq", "Evaluator.WitnessBagCtx", func() {
				bag, err = ev.WitnessBagCtx(ctx, q.Underlying)
			})
			if err != nil {
				return nil, err
			}
			witMS = append(witMS, ms(d))
			m["cq.witnesses"] += float64(len(bag))
		}
		decideUS = append(decideUS, float64(decide.Nanoseconds())/1e3)

		var res *aggcavsat.Result
		d = tr.timed(trace, root, "aggcavsat", "System.QueryContext", func() { res, err = sys.QueryContext(ctx, s.SQL) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Template, err)
		}
		st.add(res, d)
		d = tr.timed(trace, root, "aggcavsat", "System.QueryContext(sequential)", func() { res, err = seq.QueryContext(ctx, s.SQL) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Template, err)
		}
		seqWall += d
		seqPhases += phaseSum(res.Stats)
		root.end()
	}
	m["sqlparse.parse_us"] = median(parseUS)
	m["planner.decide_us"] = median(decideUS)
	m["conquer.execute_ms"] = median(execMS)
	m["conquer.index_build_ms"] = median(buildMS)
	m["cq.witness_ms"] = median(witMS)
	st.report(m, len(stmts))
	if seqWall > 0 {
		// Sequentially the phases cannot overlap, so the wall time they do
		// not cover is time the returned phase durations leave out.
		m["core.unattributed_share"] = 1 - seqPhases.Seconds()/seqWall.Seconds()
	}
	return m, probeStorage(li, m, tr)
}

// probeStorage times the db and constraints layers on freshly opened
// copies of the workload's data.
func probeStorage(li layerInput, m map[string]float64, tr *tracer) error {
	if err := saveSnapshot(li.in, li.snap); err != nil {
		return err
	}
	var openMS, groupsMS, vioMS []float64
	for i := 0; i < freshOpens; i++ {
		trace := tr.newTrace()
		root := tr.start(trace, nil, "bench", "storage")
		var snap *db.Snapshot
		var err error
		d := tr.timed(trace, root, "db", "OpenSnapshot", func() { snap, err = db.OpenSnapshot(li.snap) })
		if err != nil {
			return err
		}
		openMS = append(openMS, ms(d))
		m["db.instance_mb"] = float64(snap.SizeBytes()) / (1 << 20)
		in := snap.Instance()
		d = tr.timed(trace, root, "db", "Instance.KeyEqualGroups", func() { in.KeyEqualGroups() })
		groupsMS = append(groupsMS, ms(d))
		if len(li.dcs) > 0 {
			var vio []constraints.Violation
			d = tr.timed(trace, root, "constraints", "CachedConstraintsInfo", func() {
				vio, _, _ = constraints.CachedConstraintsInfo(cq.NewEvaluator(in), li.dcs)
			})
			vioMS = append(vioMS, ms(d))
			m["constraints.violations"] = float64(len(vio))
		}
		root.end()
		if err := snap.Close(); err != nil {
			return err
		}
	}
	m["db.open_ms"] = median(openMS)
	m["db.key_groups_ms"] = median(groupsMS)
	m["constraints.violations_ms"] = median(vioMS)
	return nil
}

// stats accumulates the engine's own counters over the probe
// statements.
type stats struct {
	wall, phases, encode, solve time.Duration
	vars, clauses, skips, runs  int
	satCalls, conflicts, alloc  int64
}

func phaseSum(s aggcavsat.Stats) time.Duration {
	return s.WitnessTime + s.ConstraintTime + s.EncodeTime + s.SolveTime + s.RewriteTime
}

func (st *stats) add(res *aggcavsat.Result, wall time.Duration) {
	s := res.Stats
	st.wall += wall
	st.phases += phaseSum(s)
	st.encode += s.EncodeTime
	st.solve += s.SolveTime
	st.vars += s.Vars
	st.clauses += s.Clauses
	st.skips += s.ConsistentPartSkips
	st.runs += s.MaxSATRuns
	st.satCalls += s.SATCalls
	st.alloc += s.WitnessAllocBytes + s.EncodeAllocBytes + s.SolveAllocBytes
	for _, ex := range res.Explains {
		for _, c := range ex.Components {
			for _, d := range c.Directions {
				st.conflicts += d.Conflicts
			}
		}
	}
}

// report stores the per-statement means of the phase times and the
// totals of the counters.
func (st *stats) report(m map[string]float64, n int) {
	if n == 0 {
		return
	}
	m["core.encode_ms"] = ms(st.encode) / float64(n)
	m["maxsat.solve_ms"] = ms(st.solve) / float64(n)
	m["core.alloc_mb"] = float64(st.alloc) / (1 << 20) / float64(n)
	m["core.cnf_vars"] = float64(st.vars)
	m["core.cnf_clauses"] = float64(st.clauses)
	m["core.consistent_part_skips"] = float64(st.skips)
	m["maxsat.runs"] = float64(st.runs)
	m["sat.calls"] = float64(st.satCalls)
	m["sat.conflicts"] = float64(st.conflicts)
	if st.wall > 0 {
		m["core.parallel_speedup"] = st.phases.Seconds() / st.wall.Seconds()
	}
}

// serverLayer derives the server and routing figures from the traced
// window's answers.
func serverLayer(m map[string]float64, ph *phase) {
	var answered, hits, rewrites int
	var hitMS, transportMS []float64
	for _, x := range ph.samples {
		if x.out != outcomeOK {
			if x.out == outcomeShed {
				m["server.shed"]++
			}
			continue
		}
		answered++
		if x.route == "rewrite" {
			rewrites++
		}
		if x.rttMS > 0 {
			transportMS = append(transportMS, x.rttMS-x.serverMS)
		}
		if x.cached {
			hits++
			hitMS = append(hitMS, x.serverMS)
		}
	}
	if answered > 0 {
		m["server.cache_hit_ratio"] = float64(hits) / float64(answered)
		m["planner.rewrite_share"] = float64(rewrites) / float64(answered)
	}
	m["server.hit_ms"] = median(hitMS)
	m["server.transport_ms"] = median(transportMS)
	m["server.attach_ms"] = median(ph.attachMS)
}
