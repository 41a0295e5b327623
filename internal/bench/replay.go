package bench

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"aggcavsat"
	"aggcavsat/internal/obsv"
	"aggcavsat/internal/server"
	"aggcavsat/internal/sqlparse"
	"aggcavsat/internal/tpch"
)

// ReplayOptions configures a load replay (the aggbench -replay mode):
// a mixed stream of workload queries is issued against one engine at a
// target arrival rate, every solve emits a journal line (when
// Config.Journal is set), and the latencies are summarized into
// per-query and overall percentile tables.
type ReplayOptions struct {
	// Source names the query stream: empty for the built-in mixed
	// workload (scalar and grouped paper queries interleaved), or a path
	// to either a query journal (JSON lines; the Query labels are
	// replayed) or a plain spec file (one workload query name per line,
	// '#' comments; repeat a name to weight it).
	Source string
	// N is the number of queries to issue; the stream is cycled or
	// truncated to it. 0 issues each stream entry once.
	N int
	// QPS is the open-loop target arrival rate. Latency is measured from
	// each query's *scheduled* issue time, so queueing delay behind a
	// slow solve is charged to the laggards (no coordinated omission).
	// 0 runs closed-loop: each worker issues as fast as it completes.
	QPS float64
	// Concurrency bounds the in-flight queries (default 4).
	Concurrency int
	// Percent is the injected inconsistency of the replayed instance
	// (default 10, the Figure 1 setting).
	Percent float64
	// Target, when set, issues the stream against a running cavsatd at
	// this base URL instead of an in-process engine. Every distinct
	// query is also executed once locally over the same generated
	// instance, and each server answer's digest is checked against the
	// local one — mismatches count as Drift. The server must be built
	// over the identical instance (cavsatd -dbgen with matching -sf,
	// -inconsistency and -seed).
	Target string
	// Instance names the server tenant to query in Target mode; empty
	// selects the server's sole instance.
	Instance string
}

// ReplayQueryStats is the latency profile of one workload query within
// a replay.
type ReplayQueryStats struct {
	Name     string `json:"name"`
	Issued   int    `json:"issued"`
	Errors   int    `json:"errors"`
	Timeouts int    `json:"timeouts"`
	// Shed counts 429 rejections (Target mode only).
	Shed int `json:"shed,omitempty"`
	// Drift counts server answers whose digest disagreed with the local
	// in-process execution (Target mode only; any nonzero is a bug).
	Drift int `json:"drift,omitempty"`
	// DriftTraces holds the server trace ids of drifted answers (at most
	// driftTraceCap per query) — the key into the server's journal and
	// /debug/trace?trace=<id> when chasing a divergence.
	DriftTraces []string             `json:"drift_traces,omitempty"`
	Latency     obsv.SummarySnapshot `json:"latency"`
}

// ReplayReport is the outcome of one load replay.
type ReplayReport struct {
	Issued   int `json:"issued"`
	Errors   int `json:"errors"`
	Timeouts int `json:"timeouts"`
	// Shed counts 429 rejections from an overloaded server (Target mode).
	Shed int `json:"shed,omitempty"`
	// Drift counts answers that disagreed with the local execution
	// (Target mode). CI gates on this staying zero.
	Drift int `json:"drift,omitempty"`
	// DriftTraces aggregates the drifted answers' server trace ids
	// across queries (bounded); failure messages print them so the
	// offending solves can be pulled from the server by id.
	DriftTraces []string `json:"drift_traces,omitempty"`
	// Skipped counts stream entries naming no known workload query
	// (journal lines from ad-hoc SQL, comments that parse as names, …).
	Skipped  int                  `json:"skipped"`
	Overall  obsv.SummarySnapshot `json:"overall"`
	PerQuery []ReplayQueryStats   `json:"per_query"`
}

// Answered returns the queries that produced an answer: issued minus
// errors, timeouts and sheds.
func (rep *ReplayReport) Answered() int {
	return rep.Issued - rep.Errors - rep.Timeouts - rep.Shed
}

// driftTraceCap bounds the recorded drift trace ids per query (and the
// report-level aggregate at 2×): enough to chase a systematic
// divergence without an unbounded slice under a pathological run.
const driftTraceCap = 8

// replayAgg accumulates one query name's outcomes during the run.
type replayAgg struct {
	sum         *obsv.Summary
	issued      int
	errors      int
	timeouts    int
	shed        int
	drift       int
	driftTraces []string
}

// replayOutcome is the classified result of issuing one query, local or
// remote.
type replayOutcome struct {
	err     error
	timeout bool
	shed    bool
	drift   bool
	// traceID is the server-assigned trace id of a remote answer,
	// recorded for drifted answers so the divergent solve can be pulled
	// from the server's journal and retained traces by id.
	traceID string
}

// Replay issues the configured query stream against one engine over the
// small DBGen instance and prints the percentile table to w. Each solve
// is labeled with its workload query name, so the journal captured
// during a replay can itself be replayed.
func (r *Runner) Replay(opts ReplayOptions, w io.Writer) (*ReplayReport, error) {
	names, skipped, err := replayStream(opts.Source)
	if err != nil {
		return nil, err
	}
	pct := opts.Percent
	if pct <= 0 {
		pct = tpch.DemoInconsistency
	}
	in, err := r.dbgen(r.cfg.SFSmall, pct)
	if err != nil {
		return nil, err
	}

	// Resolve and translate every distinct name once, up front, so a
	// typo fails the replay before any load is generated.
	type plan struct {
		name string
		sql  string
		tr   *sqlparse.Translation
	}
	plans := map[string]*plan{}
	var resolved []string
	for _, name := range names {
		if _, ok := plans[name]; ok {
			resolved = append(resolved, name)
			continue
		}
		q, err := tpch.QueryByName(name)
		if err != nil {
			skipped++
			continue
		}
		tr, err := q.Translate()
		if err != nil {
			return nil, fmt.Errorf("bench: replay query %s: %w", name, err)
		}
		plans[name] = &plan{name: name, sql: q.SQL, tr: tr}
		resolved = append(resolved, name)
	}
	if len(resolved) == 0 {
		return nil, errors.New("bench: replay stream contains no known workload queries")
	}

	// Build the executor: an in-process engine, or an HTTP client plus
	// a local reference digest per distinct query for drift detection.
	var exec func(p *plan) replayOutcome
	if opts.Target == "" {
		eng, err := r.engine(in)
		if err != nil {
			return nil, err
		}
		exec = func(p *plan) replayOutcome {
			ctx := obsv.WithQueryLabel(r.ctx, p.name)
			_, qerr := eng.RangeAnswersContext(ctx, p.tr.Aggs[0].Query)
			return replayOutcome{err: qerr, timeout: timedOut(qerr)}
		}
	} else {
		// The server must have attached the byte-identical instance
		// (cavsatd -dbgen with the same sf/inconsistency/seed); any
		// divergence shows up as drift, never as silence.
		sys, err := aggcavsat.OpenEngine(in, r.cfg.engineOptions(nil))
		if err != nil {
			return nil, err
		}
		expected := make(map[string]string, len(plans))
		for name, p := range plans {
			res, err := sys.QueryContext(obsv.WithQueryLabel(r.ctx, name), p.sql)
			if err != nil {
				return nil, fmt.Errorf("bench: replay reference %s: %w", name, err)
			}
			expected[name] = server.BuildResponse(res).Digest
		}
		client := server.NewClient(opts.Target)
		exec = func(p *plan) replayOutcome {
			resp, qerr := client.Query(r.ctx, &server.QueryRequest{
				Instance: opts.Instance,
				SQL:      p.sql,
				Label:    p.name,
			})
			if qerr != nil {
				var re *server.RemoteError
				if errors.As(qerr, &re) {
					switch {
					case re.Overloaded():
						return replayOutcome{err: qerr, shed: true}
					case re.Timeout():
						return replayOutcome{err: qerr, timeout: true}
					}
				}
				return replayOutcome{err: qerr}
			}
			return replayOutcome{
				drift:   resp.Digest != expected[p.name],
				traceID: resp.TraceID,
			}
		}
	}
	n := opts.N
	if n <= 0 {
		n = len(resolved)
	}
	conc := opts.Concurrency
	if conc <= 0 {
		conc = 4
	}

	rep := &ReplayReport{Skipped: skipped}
	overall := obsv.NewSummary()
	perName := map[string]*replayAgg{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, conc)
	start := time.Now()
	for i := 0; i < n; i++ {
		p := plans[resolved[i%len(resolved)]]
		sched := time.Now()
		if opts.QPS > 0 {
			target := start.Add(time.Duration(float64(i) / opts.QPS * float64(time.Second)))
			if d := time.Until(target); d > 0 {
				time.Sleep(d)
			}
			sched = target
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(p *plan, sched time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			out := exec(p)
			lat := time.Since(sched)
			mu.Lock()
			defer mu.Unlock()
			agg, ok := perName[p.name]
			if !ok {
				agg = &replayAgg{sum: obsv.NewSummary()}
				perName[p.name] = agg
			}
			agg.issued++
			rep.Issued++
			agg.sum.Observe(lat.Seconds())
			overall.Observe(lat.Seconds())
			switch {
			case out.shed:
				agg.shed++
				rep.Shed++
			case out.timeout:
				agg.timeouts++
				rep.Timeouts++
			case out.err != nil:
				agg.errors++
				rep.Errors++
			default:
				if out.drift {
					agg.drift++
					rep.Drift++
					if out.traceID != "" && len(agg.driftTraces) < driftTraceCap {
						agg.driftTraces = append(agg.driftTraces, out.traceID)
					}
					if out.traceID != "" && len(rep.DriftTraces) < 2*driftTraceCap {
						rep.DriftTraces = append(rep.DriftTraces, out.traceID)
					}
				}
			}
		}(p, sched)
	}
	wg.Wait()

	rep.Overall = overall.Snapshot()
	var order []string
	for name := range perName {
		order = append(order, name)
	}
	sort.Strings(order)
	for _, name := range order {
		agg := perName[name]
		rep.PerQuery = append(rep.PerQuery, ReplayQueryStats{
			Name:        name,
			Issued:      agg.issued,
			Errors:      agg.errors,
			Timeouts:    agg.timeouts,
			Shed:        agg.shed,
			Drift:       agg.drift,
			DriftTraces: agg.driftTraces,
			Latency:     agg.sum.Snapshot(),
		})
	}
	if w != nil {
		rep.table(opts, r.cfg.SFSmall, pct).Fprint(w)
	}
	return rep, nil
}

// table renders the replay outcome in the suite's aligned-table format.
// Target-mode replays grow shed and drift columns.
func (rep *ReplayReport) table(opts ReplayOptions, sf, pct float64) *Table {
	rate := "closed loop"
	if opts.QPS > 0 {
		rate = fmt.Sprintf("%g qps", opts.QPS)
	}
	title := fmt.Sprintf("Replay — %d queries, %s, sf=%g, %g%% inconsistency",
		rep.Issued, rate, sf, pct)
	remote := opts.Target != ""
	if remote {
		title += fmt.Sprintf(", target %s", opts.Target)
	}
	t := &Table{
		Title:  title,
		Header: []string{"query", "n", "err", "t/o", "p50 ms", "p90 ms", "p99 ms", "max ms"},
	}
	if remote {
		t.Header = append(t.Header, "shed", "drift")
	}
	row := func(name string, q ReplayQueryStats, s obsv.SummarySnapshot) {
		cells := []string{
			name,
			fmt.Sprintf("%d", q.Issued),
			fmt.Sprintf("%d", q.Errors),
			fmt.Sprintf("%d", q.Timeouts),
			msQuantile(s.P50), msQuantile(s.P90), msQuantile(s.P99), msQuantile(s.Max),
		}
		if remote {
			cells = append(cells, fmt.Sprintf("%d", q.Shed), fmt.Sprintf("%d", q.Drift))
		}
		t.Rows = append(t.Rows, cells)
	}
	for _, q := range rep.PerQuery {
		row(q.Name, q, q.Latency)
	}
	row("all", ReplayQueryStats{
		Issued: rep.Issued, Errors: rep.Errors, Timeouts: rep.Timeouts,
		Shed: rep.Shed, Drift: rep.Drift,
	}, rep.Overall)
	return t
}

// msQuantile renders a seconds-valued quantile in milliseconds.
func msQuantile(sec float64) string {
	return fmt.Sprintf("%.1f", sec*1000)
}

// replayStream reads the replay source into a sequence of workload
// query names. An empty source yields the built-in mixed workload; a
// file whose first line decodes as a journal entry is replayed by its
// Query labels; anything else is a spec file of names.
func replayStream(source string) (names []string, skipped int, err error) {
	if source == "" {
		// Interleave scalar and grouped queries so the mixed stream
		// alternates cheap and expensive solves.
		sc, gr := tpch.ScalarQueries(), tpch.GroupedQueries()
		for i := 0; i < len(sc) || i < len(gr); i++ {
			if i < len(sc) {
				names = append(names, sc[i].Name)
			}
			if i < len(gr) {
				names = append(names, gr[i].Name)
			}
		}
		return names, 0, nil
	}
	f, err := os.Open(source)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	head := make([]byte, 1)
	if _, err := io.ReadFull(f, head); err != nil {
		return nil, 0, fmt.Errorf("bench: replay source %s is empty", source)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, err
	}
	if head[0] == '{' {
		entries, err := obsv.ReadJournal(f)
		if err != nil {
			return nil, 0, fmt.Errorf("bench: replay journal %s: %w", source, err)
		}
		for _, e := range entries {
			if e.Query == "" {
				skipped++
				continue
			}
			names = append(names, e.Query)
		}
		return names, skipped, nil
	}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		names = append(names, line)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	return names, skipped, nil
}
