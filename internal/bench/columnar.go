package bench

import (
	"fmt"
	"runtime"
	"time"

	"aggcavsat/internal/core"
	"aggcavsat/internal/tpch"
)

// ColumnarStore (experiment "pr9") measures the memory footprint and
// query times of the columnar dictionary-encoded fact store on the
// DBGen suite. Three measurements per scale:
//
//   - instance_bytes: the GC-settled live-heap delta of materializing
//     the instance (the storage footprint itself);
//   - peak_heap: the peak HeapAlloc above the pre-build baseline over
//     the whole build-plus-query phase, observed by a sampler polling
//     runtime.ReadMemStats. This includes not-yet-collected garbage,
//     so it mixes allocation rate into the picture (and short spikes
//     between samples can be missed);
//   - peak_live: the peak GC-settled live heap above the same baseline,
//     sampled after the build and after each query — what the process
//     actually has to retain: the store plus the engine's caches;
//   - per-query timings, recorded like every other experiment.
//
// Records land in BENCH_PR9.json under Setting "layout=columnar sf=<sf>"
// (the setting string predates the removal of the row store, and is
// kept so fresh runs match the committed baseline); the synthetic
// instance_bytes/peak_heap/peak_live rows carry the byte counts in
// heap_bytes, where `aggbench -compare` applies its allocation
// regression guard.
func (r *Runner) ColumnarStore() (*Table, error) {
	r.setExperiment("PR9") // records land in BENCH_PR9.json
	scales := []struct {
		sf      float64
		pct     float64
		queries []tpch.Query
	}{
		// The paper-calibrated small scale runs the full suite; the 10×
		// scale leg keeps to the scalar queries to bound solver time.
		{r.cfg.SFSmall, 10, append(append([]tpch.Query{}, tpch.ScalarQueries()...), tpch.GroupedQueries()...)},
		{0.01, 10, tpch.ScalarQueries()},
	}
	t := &Table{
		Title:  fmt.Sprintf("PR9 — columnar fact store, DBGen 10%%, sf=%g and sf=0.01", r.cfg.SFSmall),
		Header: []string{"scale/metric", "columnar"},
	}
	for _, sc := range scales {
		m, err := r.measureStore(sc.sf, sc.pct, sc.queries)
		if err != nil {
			return nil, err
		}
		for _, q := range sc.queries {
			cell := "t/o"
			if sm := m.queries[q.Name]; !sm.timeout {
				cell = ms(sm.total)
			}
			t.Rows = append(t.Rows, []string{fmt.Sprintf("sf=%g %s", sc.sf, q.Name), cell})
		}
		t.Rows = append(t.Rows,
			[]string{fmt.Sprintf("sf=%g instance_bytes", sc.sf), mibCell(m.resident)},
			[]string{fmt.Sprintf("sf=%g peak_heap", sc.sf), mibCell(m.peak)},
			[]string{fmt.Sprintf("sf=%g peak_live", sc.sf), mibCell(m.peakLive)},
		)
	}
	return t, nil
}

// storeMeas is the store's measurement at one scale.
type storeMeas struct {
	resident int64 // GC-settled live-heap delta of the instance
	peak     int64 // sampled peak HeapAlloc above the pre-build baseline
	peakLive int64 // peak GC-settled live heap above the same baseline
	queries  map[string]storeQuery
}

type storeQuery struct {
	total   time.Duration
	timeout bool
}

// measureStore builds the demo instance, runs the queries, and tears
// everything down before returning, so the next scale starts from the
// same heap baseline. Instances are built directly (not via the
// runner's dbgen cache) precisely so nothing outlives the measurement.
func (r *Runner) measureStore(sf, pct float64, queries []tpch.Query) (*storeMeas, error) {
	r.curSetting = fmt.Sprintf("layout=columnar sf=%g", sf)
	runtime.GC()
	base := liveHeap()

	sampler := startPeakSampler(2 * time.Millisecond)
	in, err := tpch.DemoInstance(sf, pct, r.cfg.Seed)
	if err != nil {
		sampler.Stop()
		return nil, err
	}
	runtime.GC()
	resident := int64(liveHeap()) - int64(base)

	eng, err := r.engine(in)
	if err != nil {
		sampler.Stop()
		return nil, err
	}
	m := &storeMeas{resident: resident, peakLive: resident, queries: map[string]storeQuery{}}
	for _, q := range queries {
		tr, err := q.Translate()
		if err != nil {
			sampler.Stop()
			return nil, err
		}
		start := time.Now()
		rep, err := eng.RangeAnswersContext(r.ctx(), tr.Aggs[0].Query)
		if timedOut(err) {
			sq := storeQuery{total: time.Since(start), timeout: true}
			m.queries[q.Name] = sq
			r.record(q.Name, queryResult{total: sq.total, timeout: true})
			continue
		}
		if err != nil {
			sampler.Stop()
			return nil, fmt.Errorf("bench: pr9: %s (sf=%g): %w", q.Name, sf, err)
		}
		sq := storeQuery{total: time.Since(start)}
		m.queries[q.Name] = sq
		r.recordStats(q.Name, rep.Stats, sq.total, len(rep.Answers))
		// Settle the heap: what survives a GC here is the store plus the
		// engine's caches (plans, hash indexes, solver bases).
		runtime.GC()
		if live := int64(liveHeap()) - int64(base); live > m.peakLive {
			m.peakLive = live
		}
	}
	m.peak = int64(sampler.Stop()) - int64(base)
	if m.peak < resident {
		m.peak = resident // the sampler can miss the post-build plateau
	}
	r.record("instance_bytes", queryResult{stats: core.Stats{HeapBytes: m.resident}})
	r.record("peak_heap", queryResult{stats: core.Stats{HeapBytes: m.peak}})
	r.record("peak_live", queryResult{stats: core.Stats{HeapBytes: m.peakLive}})

	// Drop the instance and engine before the next scale is measured.
	runtime.GC()
	return m, nil
}

// liveHeap samples the current live heap.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// peakSampler polls the live heap on a fixed interval and keeps the
// maximum observed value.
type peakSampler struct {
	quit chan struct{}
	done chan struct{}
	peak uint64
}

func startPeakSampler(interval time.Duration) *peakSampler {
	p := &peakSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			if h := liveHeap(); h > p.peak {
				p.peak = h
			}
			select {
			case <-p.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// Stop takes a final sample and returns the peak.
func (p *peakSampler) Stop() uint64 {
	close(p.quit)
	<-p.done
	if h := liveHeap(); h > p.peak {
		p.peak = h
	}
	return p.peak
}

// mibCell renders a byte count for the table.
func mibCell(b int64) string {
	return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
}
