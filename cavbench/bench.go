package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"aggcavsat"
	"aggcavsat/internal/constraints"
	"aggcavsat/internal/db"
)

// nproc bounds connections and engine parallelism, as the workloads
// specify.
var nproc = runtime.GOMAXPROCS(0)

// sample is one attempted statement.
type sample struct {
	st      Statement
	version int // data version the statement ran against (dc_refresh)
	timed   bool
	traced  bool          // ran inside spans (alternate blocks of a traced run)
	latency time.Duration // from the scheduled send (open loop) or the call
	lag     time.Duration // how late the open-loop generator sent it
	out     outcome
	digest  string
	route   string
	cached  bool
	// serverMS is the server's own ElapsedMS; rttMS the client round
	// trip (served workloads only).
	serverMS, rttMS float64
}

// phase is the outcome of one measured window.
type phase struct {
	samples []sample
	wall    time.Duration
	// refreshMS holds one staleness window per data refresh.
	refreshMS []float64
	attachMS  []float64
}

// version is one data version a workload serves, for the answer check.
type version struct {
	in   *db.Instance
	dcs  []constraints.DC
	mode aggcavsat.PlannerMode
}

// bench is one set-up workload.
type bench interface {
	// measure runs the workload for the given time and appends to ph;
	// tr is nil when tracing is off.
	measure(ctx context.Context, ph *phase, seconds float64, tr *tracer) error
	// refresh re-opens the workload's data from its snapshot n times and
	// appends each staleness window (and probe answer) to ph.
	refresh(ctx context.Context, ph *phase, n int, tr *tracer) error
	// versions returns the data versions samples refer to.
	versions() ([]version, error)
	// layers times the public entry points of every layer on the
	// workload's data and statements.
	layers(ctx context.Context, stmts []Statement, tr *tracer) (map[string]float64, error)
	close()
}

// workloadSpec names a workload and how to set it up.
type workloadSpec struct {
	name  string
	setup func(ctx context.Context, dir string, seed uint64) (bench, error)
	// block is how many consecutive window statements one latency
	// quantile is taken over: a whole number of the workload's template
	// cycles, so every block holds the same template mix.
	block int
}

var workloads = []workloadSpec{
	{name: "serve", setup: setupServe, block: serveBlock},
	{name: "sat_batch", setup: setupSATBatch, block: satBatchBlock},
	{name: "dc_refresh", setup: setupDCRefresh, block: dcRefreshBlock},
}

// refreshes is the number of refresh probes before the measured window
// of the workloads whose window does not itself refresh.
const refreshes = 21

// setups is how many times a run sets its workload up; setup_s is
// their median.
const setups = 3

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runWorkload executes one run: set-up (repeated), the refresh probes,
// the measured window and the answer check. With traced set, alternate
// blocks of the window's statements run inside spans, and the per-layer
// probes follow the window.
func runWorkload(ctx context.Context, w io.Writer, spec workloadSpec, seed uint64, seconds float64, traced bool) (*result, error) {
	work := filepath.Join(".bench_build", "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, spec.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var b bench
	var setupS []float64
	for i := 0; i < setups; i++ {
		if b != nil {
			b.close()
			runtime.GC()
		}
		start := time.Now()
		if b, err = spec.setup(ctx, filepath.Join(dir, fmt.Sprint(i)), seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer b.close()
	setupRSS := peakRSSMB()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	// Refresh probes run right after set-up, where every run's process is
	// in the same state, and before the window, whose history differs by
	// seed.
	ph := &phase{}
	if err := b.refresh(ctx, ph, refreshes, tr); err != nil {
		return nil, err
	}
	if err := b.measure(ctx, ph, seconds, tr); err != nil {
		return nil, err
	}
	rss := peakRSSMB()
	fallback, err := check(ctx, b, ph)
	if err != nil {
		return nil, err
	}
	lat := summarize(ph)
	res := &result{Correct: lat.mismatches == 0, Attempted: lat.attempted, Failed: lat.failed, Metrics: map[string]metric{}}

	fmt.Fprintf(w, "workload %s seed %d: %d statements attempted, %d failed (%d errors, %d timeouts, %d sheds, %d digest mismatches)\n",
		spec.name, seed, lat.attempted, lat.failed, lat.errors, lat.timeouts, lat.sheds, lat.mismatches)
	fmt.Fprintf(w, "  answer check: %d distinct statements verified, %d had no independent reference (checked against a sequential run)\n",
		lat.distinct, fallback)
	p50, tail := blockQuantile(lat.latMS, spec.block, 0.5), blockQuantile(lat.latMS, spec.block, tailQuantile)
	fmt.Fprintf(w, "  latency: %d samples in blocks of %d, lower quartile over blocks of p50 %.3f ms and of p%.0f %.3f ms (%d samples beyond it per block); whole window p50 %.3f ms, p%.0f %.3f ms\n",
		len(lat.latMS), spec.block, p50, 100*tailQuantile, tail, int(float64(spec.block)*(1-tailQuantile)),
		median(lat.latMS), 100*tailQuantile, quantile(lat.latMS, tailQuantile))
	if len(lat.lagMS) > 0 {
		fmt.Fprintf(w, "  open-loop generator lag: p50 %.3f ms, p99 %.3f ms over %d sends\n",
			median(lat.lagMS), quantile(lat.lagMS, 0.99), len(lat.lagMS))
	}
	if len(lat.serverMS) > 0 {
		fmt.Fprintf(w, "  server-side time: p50 %.3f ms, p%.0f %.3f ms\n",
			median(lat.serverMS), 100*tailQuantile, quantile(lat.serverMS, tailQuantile))
	}
	fmt.Fprintf(w, "  set-up: %.3f s median of %d; peak RSS %.1f MiB after set-up, %.1f MiB after the window\n",
		median(setupS), len(setupS), setupRSS, rss)
	fmt.Fprintf(w, "  refresh: p25 %.3f ms, p50 %.3f ms, p75 %.3f ms over %d\n", quantile(ph.refreshMS, 0.25),
		median(ph.refreshMS), quantile(ph.refreshMS, 0.75), len(ph.refreshMS))

	if !traced {
		res.Metrics["setup_s"] = metric{median(setupS), "s"}
		res.Metrics["qps"] = metric{float64(lat.answered) / ph.wall.Seconds(), "1/s"}
		res.Metrics["latency_p50_ms"] = metric{p50, "ms"}
		res.Metrics["latency_p90_ms"] = metric{tail, "ms"}
		res.Metrics["ok_ratio"] = metric{float64(res.Attempted-res.Failed) / float64(res.Attempted), "ratio"}
		res.Metrics["peak_rss_mb"] = metric{rss, "MiB"}
		res.Metrics["refresh_ms"] = metric{quantile(ph.refreshMS, 0.25), "ms"}
		return res, nil
	}

	m, err := b.layers(ctx, probeStatements(ph), tr)
	if err != nil {
		return nil, err
	}
	serverLayer(m, ph)
	m["obsv.trace_overhead"] = traceOverhead(ph)
	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", spec.name, seed))
	if err := tr.export(path, w, m); err != nil {
		return nil, err
	}
	for _, def := range perLayer {
		res.Metrics[def.name] = metric{m[def.name], def.unit}
	}
	return res, nil
}

// latencySummary condenses a phase's samples.
type latencySummary struct {
	attempted, failed       int
	errors, timeouts, sheds int
	mismatches, distinct    int
	// answered counts the measured window's answered statements.
	answered int
	// latMS holds the window's statement latencies in send order.
	latMS, lagMS, serverMS []float64
}

func summarize(ph *phase) latencySummary {
	var s latencySummary
	seen := map[string]bool{}
	var failedAt []int
	for _, x := range ph.samples {
		s.attempted++
		switch x.out {
		case outcomeOK:
			if key := fmt.Sprint(x.version, "\x00", x.st.SQL); !seen[key] {
				seen[key] = true
				s.distinct++
			}
		case outcomeError:
			s.errors++
		case outcomeTimeout:
			s.timeouts++
		case outcomeShed:
			s.sheds++
		case outcomeMismatch:
			s.mismatches++
		}
		if x.out != outcomeOK {
			s.failed++
		}
		if !x.timed {
			continue
		}
		if x.lag > 0 {
			s.lagMS = append(s.lagMS, ms(x.lag))
		}
		if x.out != outcomeOK {
			failedAt = append(failedAt, len(s.latMS))
			s.latMS = append(s.latMS, 0)
			continue
		}
		s.answered++
		s.latMS = append(s.latMS, ms(x.latency))
		if x.rttMS > 0 {
			s.serverMS = append(s.serverMS, x.serverMS)
		}
	}
	// A failed statement misses every latency limit, so it enters the
	// latency sample, in its place in the send order, at the slowest
	// answered time rather than dropping out of it.
	worst := 0.0
	for _, v := range s.latMS {
		worst = math.Max(worst, v)
	}
	for _, i := range failedAt {
		s.latMS[i] = worst
	}
	return s
}

// traceOverhead compares the latencies of the traced and untraced
// statements of one window: per template, the traced median over the
// untraced median, minus 1, and the median of that across templates.
// Matching by template keeps the statements' own cost differences out of
// the comparison.
func traceOverhead(ph *phase) float64 {
	traced, untraced := map[string][]float64{}, map[string][]float64{}
	for _, x := range ph.samples {
		if !x.timed || x.out != outcomeOK {
			continue
		}
		if x.traced {
			traced[x.st.Template] = append(traced[x.st.Template], ms(x.latency))
		} else {
			untraced[x.st.Template] = append(untraced[x.st.Template], ms(x.latency))
		}
	}
	var ratios []float64
	for tm, t := range traced {
		if u := untraced[tm]; len(u) > 0 && median(u) > 0 {
			ratios = append(ratios, median(t)/median(u))
		}
	}
	if len(ratios) == 0 {
		return 0
	}
	return median(ratios) - 1
}

// check computes the reference digests of every distinct answered
// statement per data version and counts the samples that disagree.
func check(ctx context.Context, b bench, ph *phase) (fallback int, err error) {
	vs, err := b.versions()
	if err != nil {
		return 0, err
	}
	for vi, v := range vs {
		var checks []refCheck
		seen := map[string]bool{}
		for _, x := range ph.samples {
			if x.version != vi || x.out != outcomeOK || seen[x.st.SQL] {
				continue
			}
			seen[x.st.SQL] = true
			checks = append(checks, refCheck{SQL: x.st.SQL, Template: x.st.Template, Route: x.route})
		}
		if len(checks) == 0 {
			continue
		}
		refs, fb, err := referenceDigests(ctx, v.in, v.dcs, v.mode, checks)
		if err != nil {
			return 0, err
		}
		fallback += fb
		for i := range ph.samples {
			x := &ph.samples[i]
			if x.version == vi && x.out == outcomeOK && x.digest != refs[x.st.SQL] {
				x.out = outcomeMismatch
			}
		}
	}
	return fallback, nil
}

// probeStatements picks the statements the per-layer probes time: the
// first distinct statements of the measured window, at most three per
// template, so the probe mix follows the workload's template mix.
func probeStatements(ph *phase) []Statement {
	seen, perTemplate := map[string]bool{}, map[string]int{}
	var out []Statement
	for _, x := range ph.samples {
		if !x.timed || seen[x.st.SQL] || perTemplate[x.st.Template] == 3 {
			continue
		}
		seen[x.st.SQL] = true
		perTemplate[x.st.Template]++
		out = append(out, x.st)
	}
	return out
}
