package main

import (
	"context"
	"path/filepath"
	"runtime/debug"
	"time"

	"aggcavsat"
	"aggcavsat/internal/db"
	"aggcavsat/internal/server"
	"aggcavsat/internal/tpch"
)

// satBatchRounds bounds the pre-generated sat_batch stream, in rounds
// of one statement per template; a run stops at its time limit long
// before reaching it.
const satBatchRounds = 40

// satBatchBlock is the latency block of sat_batch: one round of its 14
// templates.
const satBatchBlock = 14

// satBatchTemplates are the templates of sat_batch: all but those whose
// variants exhaust the solver budget at sf 0.01 (satHeavy).
func satBatchTemplates() []template {
	var names []string
	for n := range satHeavy {
		names = append(names, n)
	}
	return templatesExcept(names...)
}

// satBatchBench is the sat_batch workload: one library caller running
// distinct TPC-H variants through the facade with every statement
// forced onto the WPMaxSAT route.
type satBatchBench struct {
	seed uint64
	in   *db.Instance
	sys  *aggcavsat.System
	snap string
}

func satBatchOptions() aggcavsat.Options {
	return aggcavsat.Options{Planner: aggcavsat.PlannerForceSAT, Parallelism: nproc}
}

func setupSATBatch(ctx context.Context, dir string, seed uint64) (bench, error) {
	in, err := tpch.DemoInstance(tpchSF, tpchPercent, tpchSeed)
	if err != nil {
		return nil, err
	}
	sys, err := aggcavsat.Open(in, satBatchOptions())
	if err != nil {
		return nil, err
	}
	// Warm-up: the paper's queries (minus the budget-exhausting ones)
	// fill the key groups, hash indexes and component bases.
	for _, q := range append(tpch.ScalarQueries(), tpch.GroupedQueries()...) {
		if satHeavy[q.Name] {
			continue
		}
		if _, err := sys.QueryContext(ctx, q.SQL); err != nil {
			return nil, err
		}
	}
	return &satBatchBench{seed: seed, in: in, sys: sys, snap: filepath.Join(dir, "tpch.snapshot")}, nil
}

// measure runs the closed loop: one caller, the next statement as soon
// as the previous one answers, until the time is up and the current
// round of templates is complete.
func (b *satBatchBench) measure(ctx context.Context, ph *phase, seconds float64, tr *tracer) error {
	tmpls := satBatchTemplates()
	stream := Stream(b.seed, satBatchRounds*len(tmpls), tmpls, 0)
	limit := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	// Only whole rounds run, so every template weighs the same in each
	// run's figures.
	for i := 0; i < len(stream) && (time.Since(start) < limit || i%len(tmpls) != 0); i++ {
		str := tr.every(i)
		x := sample{st: stream[i], timed: true, traced: str != nil}
		trace := str.newTrace()
		root := str.start(trace, nil, "bench", "statement "+x.st.Template)
		var res *aggcavsat.Result
		var err error
		x.latency = str.timed(trace, root, "aggcavsat", "System.QueryContext", func() {
			res, err = b.sys.QueryContext(ctx, x.st.SQL)
		})
		root.end()
		if x.out = classify(err); x.out == outcomeOK {
			x.digest, x.route = server.BuildResponse(res).Digest, res.Route
		}
		ph.samples = append(ph.samples, x)
	}
	ph.wall = time.Since(start)
	return nil
}

// refresh opens a fresh engine over a newly opened snapshot n times,
// timing each from the snapshot open to the probe's answer.
func (b *satBatchBench) refresh(ctx context.Context, ph *phase, n int, tr *tracer) error {
	if err := saveSnapshot(b.in, b.snap); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		// Each refresh starts on a collected heap with its free pages
		// returned to the system, so every sample pays the same page
		// faults and none inherits garbage from the one before.
		debug.FreeOSMemory()
		trace := tr.newTrace()
		root := tr.start(trace, nil, "bench", "refresh")
		start := time.Now()
		var snap *db.Snapshot
		var err error
		tr.timed(trace, root, "db", "OpenSnapshot", func() { snap, err = db.OpenSnapshot(b.snap) })
		if err != nil {
			return err
		}
		var sys *aggcavsat.System
		tr.timed(trace, root, "aggcavsat", "Open", func() { sys, err = aggcavsat.Open(snap.Instance(), satBatchOptions()) })
		if err != nil {
			snap.Close()
			return err
		}
		x := sample{st: Statement{Template: "probe", SQL: tpchProbe}}
		var res *aggcavsat.Result
		tr.timed(trace, root, "aggcavsat", "System.QueryContext", func() { res, err = sys.QueryContext(ctx, tpchProbe) })
		root.end()
		ph.refreshMS = append(ph.refreshMS, ms(time.Since(start)))
		if err == nil {
			// The digest is taken before the mapping goes away.
			x.digest, x.route = server.BuildResponse(res).Digest, res.Route
		}
		snap.Close()
		x.out = classify(err)
		ph.samples = append(ph.samples, x)
	}
	debug.FreeOSMemory()
	return nil
}

func (b *satBatchBench) versions() ([]version, error) {
	return []version{{in: b.in, mode: aggcavsat.PlannerForceSAT}}, nil
}

func (b *satBatchBench) layers(ctx context.Context, stmts []Statement, tr *tracer) (map[string]float64, error) {
	return probeLayers(ctx, layerInput{in: b.in, mode: aggcavsat.PlannerForceSAT, snap: b.snap}, stmts, tr)
}

func (b *satBatchBench) close() {}
