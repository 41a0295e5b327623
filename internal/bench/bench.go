// Package bench regenerates every table and figure of the paper's
// evaluation section (Section VI) on the scaled-down substrate:
//
//	Figure 1/5: AggCAvSAT vs ConQuer, scalar/grouped queries, DBGen 10 %
//	Figure 2/6: AggCAvSAT vs ConQuer on the PDBench instances
//	Figure 3/7: inconsistency sweep 5–35 % (+ SAT calls for grouped)
//	Figure 4/8: database size sweep (+ SAT calls for grouped)
//	Table II:   PDBench instance profiles
//	Table III:  CNF sizes per inconsistency (a/b) and size (c/d)
//	Table IV:   the Medigap schema/constraint profile
//	Figure 9:   Medigap queries under Reduction V.1
//
// The paper's nominal database sizes map to scale factors
// (Config.SFSmall/SFMedium/SFLarge ≈ "1 GB"/"3 GB"/"5 GB"); absolute
// times differ from the paper's SQL-Server-plus-MaxHS testbed, but the
// shapes — encode vs solve split, who beats ConQuer where, linear CNF
// growth, degradation above 30 % inconsistency — are preserved.
package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"aggcavsat/internal/conquer"
	"aggcavsat/internal/constraints"
	"aggcavsat/internal/core"
	"aggcavsat/internal/db"
	"aggcavsat/internal/maxsat"
	"aggcavsat/internal/medigap"
	"aggcavsat/internal/obsv"
	"aggcavsat/internal/pdbench"
	"aggcavsat/internal/planner"
	"aggcavsat/internal/sqlparse"
	"aggcavsat/internal/tpch"
)

// Config calibrates the experiments.
type Config struct {
	// Scale factors standing in for the paper's 1/3/5 GB repair sizes.
	SFSmall, SFMedium, SFLarge float64
	// MedigapScale relative to the real 61 K-tuple dataset.
	MedigapScale float64
	Seed         uint64
	Solver       maxsat.Options
	// Parallelism is the engine worker-pool size (0 = GOMAXPROCS,
	// 1 = sequential). Results are identical at every setting.
	Parallelism int
	// Timeout is a per-query wall-clock bound; like the conflict budget,
	// an expiry is reported as "t/o" rather than stalling the suite. The
	// paper's own evaluation uses wall-clock timeouts. 0 means none.
	Timeout time.Duration
	// SlowQuery and OnAnomaly enable the per-query flight recorder on
	// every engine the suite builds: queries that time out, fail, or run
	// longer than SlowQuery deliver a dump bundle to OnAnomaly.
	SlowQuery time.Duration
	OnAnomaly func(*obsv.Bundle)
	// Journal, when non-nil, receives one wide-event line per engine call
	// (the aggbench -journal flag); each line is labeled with the
	// workload query's paper name, so a captured journal doubles as a
	// replay spec.
	Journal *obsv.Journal
	// Planner is the routing policy for every engine the suite builds.
	// The default (force-sat, the zero value) keeps the paper tables
	// measuring the WPMaxSAT pipeline.
	Planner planner.Mode
}

// DefaultConfig returns the calibration used by EXPERIMENTS.md. The
// solver budgets bound each query: a handful of (instance, query)
// pairs in the hardest settings (PDBench instance 4, 35 %
// inconsistency) hit combinatorial blow-ups — exactly where the paper
// reports its own solver struggling — and are reported as "t/o"
// rather than stalling the suite.
func DefaultConfig() Config {
	return Config{
		SFSmall:      tpch.DemoSF,
		SFMedium:     0.003,
		SFLarge:      0.005,
		MedigapScale: 0.25,
		Seed:         tpch.DemoSeed,
		Solver: maxsat.Options{
			ConflictBudget: 400_000,
			HSNodeBudget:   2_000_000,
		},
	}
}

// timedOut reports whether a query failed only because a solver budget
// or the wall-clock timeout ran out (the typed sentinels of
// internal/core), as opposed to a real error.
func timedOut(err error) bool {
	return errors.Is(err, core.ErrBudget) || errors.Is(err, core.ErrTimeout)
}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "### %s\n\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// Runner memoizes generated instances across experiments.
type Runner struct {
	cfg Config

	dbgenCache   map[string]*db.Instance
	pdbenchCache map[int]*db.Instance
	pdbenchProf  map[int]pdbench.Profile
	medigapInst  *db.Instance
	medigapDCs   []constraints.DC

	// ctx is the context of every engine call; WithContext replaces it
	// (to carry an obsv.Tracer or a cancellation).
	ctx context.Context
}

// NewRunner creates a runner for the configuration.
func NewRunner(cfg Config) *Runner {
	return &Runner{
		cfg:          cfg,
		dbgenCache:   map[string]*db.Instance{},
		pdbenchCache: map[int]*db.Instance{},
		pdbenchProf:  map[int]pdbench.Profile{},
		ctx:          context.Background(),
	}
}

// WithContext sets the context used for every engine call, so a caller
// can install an obsv.Tracer and capture a Chrome trace of a whole
// benchmark run, or interrupt it. Returns r for chaining.
func (r *Runner) WithContext(ctx context.Context) *Runner {
	r.ctx = ctx
	return r
}

// dbgen returns the DBGen-style instance at the scale factor and target
// inconsistency.
func (r *Runner) dbgen(sf, pct float64) (*db.Instance, error) {
	key := fmt.Sprintf("%g|%g", sf, pct)
	if in, ok := r.dbgenCache[key]; ok {
		return in, nil
	}
	in, err := tpch.DemoInstance(sf, pct, r.cfg.Seed)
	if err != nil {
		return nil, err
	}
	r.dbgenCache[key] = in
	return in, nil
}

func (r *Runner) pdbench(inst int) (*db.Instance, pdbench.Profile, error) {
	if in, ok := r.pdbenchCache[inst]; ok {
		return in, r.pdbenchProf[inst], nil
	}
	in, prof, err := pdbench.Generate(r.cfg.SFSmall, inst, r.cfg.Seed)
	if err != nil {
		return nil, prof, err
	}
	r.pdbenchCache[inst] = in
	r.pdbenchProf[inst] = prof
	return in, prof, nil
}

func (r *Runner) medigap() (*db.Instance, []constraints.DC, error) {
	if r.medigapInst != nil {
		return r.medigapInst, r.medigapDCs, nil
	}
	in, err := medigap.Generate(r.cfg.MedigapScale, r.cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	dcs, err := medigap.Constraints(in.Schema())
	if err != nil {
		return nil, nil, err
	}
	r.medigapInst = in
	r.medigapDCs = dcs
	return in, dcs, nil
}

// queryResult is one AggCAvSAT measurement.
type queryResult struct {
	stats   core.Stats
	total   time.Duration
	answers int
	timeout bool
}

// runQuery executes one workload query on an engine. timeout=true
// means a solver budget ran out (reported as "t/o" in the tables).
func (r *Runner) runQuery(eng *core.Engine, q tpch.Query) (queryResult, error) {
	tr, err := q.Translate()
	if err != nil {
		return queryResult{}, err
	}
	start := time.Now()
	rep, err := eng.RangeAnswersContext(obsv.WithQueryLabel(r.ctx, q.Name), tr.Aggs[0].Query)
	if timedOut(err) {
		return queryResult{timeout: true, total: time.Since(start)}, nil
	}
	if err != nil {
		return queryResult{}, err
	}
	return queryResult{stats: rep.Stats, total: time.Since(start), answers: len(rep.Answers)}, nil
}

// runConquer times the rewriting baseline; supported=false mirrors the
// paper's "not in C_aggforest" entries.
func runConquer(in *db.Instance, q tpch.Query) (time.Duration, bool, error) {
	tr, err := q.Translate()
	if err != nil {
		return 0, false, err
	}
	b := conquer.New(in)
	start := time.Now()
	_, err = b.RangeAnswers(tr.Aggs[0].Query)
	if errors.Is(err, conquer.ErrNotInClass) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, err
	}
	return time.Since(start), true, nil
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}

// engineOptions is the one mapping from the configuration onto the
// options of every engine the suite builds: the key-constraint engines
// of the experiments and the replay, Figure 9's denial-constraint
// engine (dcs non-empty), and the replay's reference system.
func (c Config) engineOptions(dcs []constraints.DC) core.Options {
	opts := core.Options{
		Mode:        core.KeysMode,
		MaxSAT:      c.Solver,
		Parallelism: c.Parallelism,
		Timeout:     c.Timeout,
		SlowQuery:   c.SlowQuery,
		OnAnomaly:   c.OnAnomaly,
		Journal:     c.Journal,
		Planner:     c.Planner,
	}
	if len(dcs) > 0 {
		opts.Mode, opts.DCs = core.DCMode, dcs
	}
	return opts
}

func (r *Runner) engine(in *db.Instance) (*core.Engine, error) {
	return core.New(in, r.cfg.engineOptions(nil))
}

// versusConQuer is the shared shape of Figures 1, 2, 5 and 6. The
// engine builds the key-equal groups once, in the first query; as in
// the paper, every row's encode time includes that shared build.
func (r *Runner) versusConQuer(title string, in *db.Instance, queries []tpch.Query) (*Table, error) {
	eng, err := r.engine(in)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  title,
		Header: []string{"query", "witness_ms", "encode_ms", "solve_ms", "aggcavsat_ms", "conquer_ms", "groups"},
	}
	var groups time.Duration
	for _, q := range queries {
		res, err := r.runQuery(eng, q)
		if err != nil {
			return nil, err
		}
		if res.stats.ConstraintTime > 0 {
			groups = res.stats.ConstraintTime
		}
		cqTime, supported, err := runConquer(in, q)
		if err != nil {
			return nil, err
		}
		conquerCell := "not in C_aggforest"
		if supported {
			conquerCell = ms(cqTime)
		}
		t.Rows = append(t.Rows, []string{
			q.Name,
			ms(res.stats.WitnessTime),
			ms(groups + res.stats.EncodeTime),
			ms(res.stats.SolveTime),
			totalCell(res),
			conquerCell,
			fmt.Sprintf("%d", res.answers),
		})
	}
	return t, nil
}

// totalCell renders a query total, or "t/o" when a budget ran out.
func totalCell(res queryResult) string {
	if res.timeout {
		return "t/o"
	}
	return ms(res.total)
}

// Figure1 compares scalar queries against ConQuer on DBGen data with
// 10 % inconsistency at the small ("1 GB") scale.
func (r *Runner) Figure1() (*Table, error) {
	in, err := r.dbgen(r.cfg.SFSmall, 10)
	if err != nil {
		return nil, err
	}
	return r.versusConQuer(
		fmt.Sprintf("Figure 1 — scalar queries, DBGen 10%%, sf=%g", r.cfg.SFSmall),
		in, tpch.ScalarQueries())
}

// Figure5 is Figure 1 for the grouped queries.
func (r *Runner) Figure5() (*Table, error) {
	in, err := r.dbgen(r.cfg.SFSmall, 10)
	if err != nil {
		return nil, err
	}
	return r.versusConQuer(
		fmt.Sprintf("Figure 5 — grouped queries, DBGen 10%%, sf=%g", r.cfg.SFSmall),
		in, tpch.GroupedQueries())
}

// Figure2 compares scalar queries against ConQuer on the four PDBench
// instances.
func (r *Runner) Figure2() (*Table, error) {
	return r.pdbenchVersus("Figure 2 — scalar queries on PDBench instances 1–4", tpch.ScalarQueries())
}

// Figure6 is Figure 2 for the grouped queries.
func (r *Runner) Figure6() (*Table, error) {
	return r.pdbenchVersus("Figure 6 — grouped queries on PDBench instances 1–4", tpch.GroupedQueries())
}

func (r *Runner) pdbenchVersus(title string, queries []tpch.Query) (*Table, error) {
	t := &Table{
		Title:  title,
		Header: []string{"query", "inst1_ms", "inst2_ms", "inst3_ms", "inst4_ms", "conquer1_ms", "conquer4_ms"},
	}
	type cell struct {
		agg [4]string
		cq1 string
		cq4 string
	}
	cells := map[string]*cell{}
	var order []string
	for inst := 1; inst <= 4; inst++ {
		in, _, err := r.pdbench(inst)
		if err != nil {
			return nil, err
		}
		eng, err := r.engine(in)
		if err != nil {
			return nil, err
		}
		for _, q := range queries {
			c, ok := cells[q.Name]
			if !ok {
				c = &cell{}
				cells[q.Name] = c
				order = append(order, q.Name)
			}
			res, err := r.runQuery(eng, q)
			if err != nil {
				return nil, err
			}
			c.agg[inst-1] = totalCell(res)
			if inst == 1 || inst == 4 {
				cqTime, supported, err := runConquer(in, q)
				if err != nil {
					return nil, err
				}
				val := "n/a"
				if supported {
					val = ms(cqTime)
				}
				if inst == 1 {
					c.cq1 = val
				} else {
					c.cq4 = val
				}
			}
		}
	}
	for _, name := range order {
		c := cells[name]
		t.Rows = append(t.Rows, []string{name, c.agg[0], c.agg[1], c.agg[2], c.agg[3], c.cq1, c.cq4})
	}
	return t, nil
}

// TableII reports the generated PDBench instance profiles next to the
// paper's targets.
func (r *Runner) TableII() (*Table, error) {
	t := &Table{
		Title:  "Table II — PDBench instance profiles (measured %, paper targets in parentheses)",
		Header: []string{"table", "inst1", "inst2", "inst3", "inst4"},
	}
	type rowAcc map[int]string
	rels := []string{"customer", "lineitem", "nation", "orders", "part", "partsupp", "region", "supplier"}
	acc := map[string]rowAcc{}
	overall := rowAcc{}
	largest := rowAcc{}
	for inst := 1; inst <= 4; inst++ {
		in, prof, err := r.pdbench(inst)
		if err != nil {
			return nil, err
		}
		maxGroup := 0
		for _, st := range in.KeyInconsistency() {
			rel := strings.ToLower(st.Rel)
			if acc[rel] == nil {
				acc[rel] = rowAcc{}
			}
			acc[rel][inst] = fmt.Sprintf("%.2f (%.2f)", st.Percent(), prof.PerRelation[rel])
			if st.LargestGroup > maxGroup {
				maxGroup = st.LargestGroup
			}
		}
		overall[inst] = fmt.Sprintf("%.2f (%.2f)", pdbench.MeasuredOverall(in), prof.Overall)
		largest[inst] = fmt.Sprintf("%d (%d)", maxGroup, prof.MaxGroup)
	}
	for _, rel := range rels {
		row := []string{rel}
		for inst := 1; inst <= 4; inst++ {
			row = append(row, acc[rel][inst])
		}
		t.Rows = append(t.Rows, row)
	}
	t.Rows = append(t.Rows, []string{"overall", overall[1], overall[2], overall[3], overall[4]})
	t.Rows = append(t.Rows, []string{"max group", largest[1], largest[2], largest[3], largest[4]})
	return t, nil
}

// inconsistencySweep is Figures 3 (scalar) and 7 (grouped, with SAT
// calls).
func (r *Runner) inconsistencySweep(title string, queries []tpch.Query, withCalls bool) (*Table, error) {
	pcts := []float64{5, 15, 25, 35}
	header := []string{"query"}
	for _, p := range pcts {
		header = append(header, fmt.Sprintf("%g%%_ms", p))
	}
	if withCalls {
		for _, p := range pcts {
			header = append(header, fmt.Sprintf("%g%%_satcalls", p))
		}
	}
	t := &Table{Title: title, Header: header}
	rows := map[string][]string{}
	calls := map[string][]string{}
	var order []string
	for _, pct := range pcts {
		in, err := r.dbgen(r.cfg.SFSmall, pct)
		if err != nil {
			return nil, err
		}
		eng, err := r.engine(in)
		if err != nil {
			return nil, err
		}
		for _, q := range queries {
			res, err := r.runQuery(eng, q)
			if err != nil {
				return nil, err
			}
			if _, ok := rows[q.Name]; !ok {
				order = append(order, q.Name)
			}
			rows[q.Name] = append(rows[q.Name], totalCell(res))
			calls[q.Name] = append(calls[q.Name], fmt.Sprintf("%d", res.stats.SATCalls))
		}
	}
	for _, name := range order {
		row := append([]string{name}, rows[name]...)
		if withCalls {
			row = append(row, calls[name]...)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Figure3 sweeps inconsistency for the scalar queries.
func (r *Runner) Figure3() (*Table, error) {
	return r.inconsistencySweep(
		fmt.Sprintf("Figure 3 — scalar queries, inconsistency 5–35%%, sf=%g", r.cfg.SFSmall),
		tpch.ScalarQueries(), false)
}

// Figure7 sweeps inconsistency for the grouped queries, reporting the
// number of SAT calls (the paper's second plot, log scale).
func (r *Runner) Figure7() (*Table, error) {
	return r.inconsistencySweep(
		fmt.Sprintf("Figure 7 — grouped queries, inconsistency 5–35%%, sf=%g (+SAT calls)", r.cfg.SFSmall),
		tpch.GroupedQueries(), true)
}

// sizeSweep is Figures 4 (scalar) and 8 (grouped, with SAT calls).
func (r *Runner) sizeSweep(title string, queries []tpch.Query, withCalls bool) (*Table, error) {
	sizes := []struct {
		label string
		sf    float64
	}{
		{"small", r.cfg.SFSmall},
		{"medium", r.cfg.SFMedium},
		{"large", r.cfg.SFLarge},
	}
	header := []string{"query"}
	for _, s := range sizes {
		header = append(header, s.label+"_ms")
	}
	if withCalls {
		for _, s := range sizes {
			header = append(header, s.label+"_satcalls")
		}
	}
	t := &Table{Title: title, Header: header}
	rows := map[string][]string{}
	calls := map[string][]string{}
	var order []string
	for _, size := range sizes {
		in, err := r.dbgen(size.sf, 10)
		if err != nil {
			return nil, err
		}
		eng, err := r.engine(in)
		if err != nil {
			return nil, err
		}
		for _, q := range queries {
			res, err := r.runQuery(eng, q)
			if err != nil {
				return nil, err
			}
			if _, ok := rows[q.Name]; !ok {
				order = append(order, q.Name)
			}
			rows[q.Name] = append(rows[q.Name], totalCell(res))
			calls[q.Name] = append(calls[q.Name], fmt.Sprintf("%d", res.stats.SATCalls))
		}
	}
	for _, name := range order {
		row := append([]string{name}, rows[name]...)
		if withCalls {
			row = append(row, calls[name]...)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Figure4 sweeps database size for the scalar queries.
func (r *Runner) Figure4() (*Table, error) {
	return r.sizeSweep(
		fmt.Sprintf("Figure 4 — scalar queries, sizes sf=%g/%g/%g, 10%% inconsistency",
			r.cfg.SFSmall, r.cfg.SFMedium, r.cfg.SFLarge),
		tpch.ScalarQueries(), false)
}

// Figure8 sweeps database size for the grouped queries with SAT calls.
func (r *Runner) Figure8() (*Table, error) {
	return r.sizeSweep(
		fmt.Sprintf("Figure 8 — grouped queries, sizes sf=%g/%g/%g, 10%% inconsistency (+SAT calls)",
			r.cfg.SFSmall, r.cfg.SFMedium, r.cfg.SFLarge),
		tpch.GroupedQueries(), true)
}

// cnfQueries are the three queries of Table III (largest formulas).
var cnfQueries = []string{"Q1'", "Q6'", "Q14'"}

// TableIIIab reports CNF sizes per inconsistency level.
func (r *Runner) TableIIIab() (*Table, error) {
	pcts := []float64{5, 15, 25, 35}
	t := &Table{
		Title:  fmt.Sprintf("Table IIIa/b — CNF size vs inconsistency (sf=%g): vars | clauses", r.cfg.SFSmall),
		Header: []string{"query", "5%", "15%", "25%", "35%"},
	}
	rows := map[string][]string{}
	for _, pct := range pcts {
		in, err := r.dbgen(r.cfg.SFSmall, pct)
		if err != nil {
			return nil, err
		}
		eng, err := r.engine(in)
		if err != nil {
			return nil, err
		}
		for _, name := range cnfQueries {
			q, err := tpch.QueryByName(name)
			if err != nil {
				return nil, err
			}
			res, err := r.runQuery(eng, q)
			if err != nil {
				return nil, err
			}
			rows[name] = append(rows[name],
				fmt.Sprintf("%d | %d", res.stats.Vars, res.stats.Clauses))
		}
	}
	for _, name := range cnfQueries {
		t.Rows = append(t.Rows, append([]string{name}, rows[name]...))
	}
	return t, nil
}

// TableIIIcd reports CNF sizes per database size.
func (r *Runner) TableIIIcd() (*Table, error) {
	sfs := []float64{r.cfg.SFSmall, r.cfg.SFMedium, r.cfg.SFLarge}
	t := &Table{
		Title:  "Table IIIc/d — CNF size vs database size (10% inconsistency): vars | clauses",
		Header: []string{"query", "small", "medium", "large"},
	}
	rows := map[string][]string{}
	for _, sf := range sfs {
		in, err := r.dbgen(sf, 10)
		if err != nil {
			return nil, err
		}
		eng, err := r.engine(in)
		if err != nil {
			return nil, err
		}
		for _, name := range cnfQueries {
			q, err := tpch.QueryByName(name)
			if err != nil {
				return nil, err
			}
			res, err := r.runQuery(eng, q)
			if err != nil {
				return nil, err
			}
			rows[name] = append(rows[name],
				fmt.Sprintf("%d | %d", res.stats.Vars, res.stats.Clauses))
		}
	}
	for _, name := range cnfQueries {
		t.Rows = append(t.Rows, append([]string{name}, rows[name]...))
	}
	return t, nil
}

// TableIV reports the Medigap schema and constraint profile.
func (r *Runner) TableIV() (*Table, error) {
	in, dcs, err := r.medigap()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Table IV — Medigap profile (scale %g)", r.cfg.MedigapScale),
		Header: []string{"relation", "attributes", "tuples"},
	}
	for _, rs := range in.Schema().Relations() {
		t.Rows = append(t.Rows, []string{rs.Name, fmt.Sprintf("%d", rs.Arity()), fmt.Sprintf("%d", in.RelSize(rs.Name))})
	}
	t.Rows = append(t.Rows, []string{"constraints", fmt.Sprintf("%d DCs", len(dcs)), "2 FDs + 1 DC"})
	return t, nil
}

// Figure9 runs the twelve Medigap queries under Reduction V.1, with the
// paper's encode split (constraint/near-violation time vs witnesses vs
// solving). The engine detects the violations once, in the first
// query; as in the paper, every row shows that shared time.
func (r *Runner) Figure9() (*Table, error) {
	in, dcs, err := r.medigap()
	if err != nil {
		return nil, err
	}
	eng, err := core.New(in, r.cfg.engineOptions(dcs))
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 9 — Medigap queries (denial constraints, Reduction V.1)",
		Header: []string{"query", "violations_ms", "witness_ms", "encode_ms", "solve_ms", "total_ms", "satcalls", "groups"},
	}
	var violations time.Duration
	for _, q := range medigap.Queries() {
		tr, err := sqlparse.ParseAndTranslate(q.SQL, in.Schema())
		if err != nil {
			return nil, err
		}
		start := time.Now()
		rep, err := eng.RangeAnswersContext(obsv.WithQueryLabel(r.ctx, q.Name), tr.Aggs[0].Query)
		if err != nil {
			return nil, err
		}
		total := time.Since(start)
		st := rep.Stats
		if st.ConstraintTime > 0 {
			violations = st.ConstraintTime
		}
		t.Rows = append(t.Rows, []string{
			q.Name,
			ms(violations),
			ms(st.WitnessTime),
			ms(st.EncodeTime),
			ms(st.SolveTime),
			ms(total),
			fmt.Sprintf("%d", st.SATCalls),
			fmt.Sprintf("%d", len(rep.Answers)),
		})
	}
	return t, nil
}

// experiments is the one ordered list of experiments: All runs them in
// this (paper) order, Experiment dispatches on the name, and Names
// lists them.
var experiments = []struct {
	name string
	run  func(*Runner) (*Table, error)
}{
	{"fig1", (*Runner).Figure1},
	{"fig2", (*Runner).Figure2},
	{"table2", (*Runner).TableII},
	{"fig3", (*Runner).Figure3},
	{"table3ab", (*Runner).TableIIIab},
	{"fig4", (*Runner).Figure4},
	{"table3cd", (*Runner).TableIIIcd},
	{"fig5", (*Runner).Figure5},
	{"fig6", (*Runner).Figure6},
	{"fig7", (*Runner).Figure7},
	{"fig8", (*Runner).Figure8},
	{"table4", (*Runner).TableIV},
	{"fig9", (*Runner).Figure9},
}

// All runs every experiment in paper order.
func (r *Runner) All(w io.Writer) error {
	for _, e := range experiments {
		start := time.Now()
		table, err := e.run(r)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", e.name, err)
		}
		table.Fprint(w)
		fmt.Fprintf(w, "(%s finished in %v)\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// Experiment runs one experiment by name (case-insensitive).
func (r *Runner) Experiment(name string, w io.Writer) error {
	name = strings.ToLower(name)
	for _, e := range experiments {
		if e.name == name {
			table, err := e.run(r)
			if err != nil {
				return err
			}
			table.Fprint(w)
			return nil
		}
	}
	return fmt.Errorf("bench: unknown experiment %q", name)
}

// Names lists the experiment identifiers in paper order.
func Names() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}
