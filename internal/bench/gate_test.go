package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"aggcavsat/internal/core"
	"aggcavsat/internal/tpch"
)

// goldenPath is the committed expectation TestGoldenCounters checks a
// fresh run against.
const goldenPath = "testdata/gate_golden.json"

// The memory guard: a memory figure regresses only when it grows past
// memGuardRatio × its golden value AND by more than memGuardFloor
// bytes. Allocation totals and GC-settled heap sizes repeat closely run
// to run, but GC timing still moves them a little.
const (
	memGuardRatio = 1.5
	memGuardFloor = 8 << 20
)

// gateGolden is the gate's expected outcome: one leg per scale.
type gateGolden struct {
	Legs []gateLeg `json:"legs"`
}

// gateLeg is one scale of the gate suite: DBGen at 10 % inconsistency.
//
//   - InstanceBytes is the GC-settled live-heap delta of materialising
//     the instance (the store's footprint);
//   - PeakHeap is the peak HeapAlloc above the pre-build baseline over
//     building plus querying, polled by a sampler (includes garbage);
//   - PeakLive is the peak GC-settled live heap above that baseline,
//     sampled after the build and after each query: the store plus the
//     engine's caches.
type gateLeg struct {
	SF            float64     `json:"sf"`
	InstanceBytes int64       `json:"instance_bytes"`
	PeakHeap      int64       `json:"peak_heap"`
	PeakLive      int64       `json:"peak_live"`
	Queries       []gateQuery `json:"queries"`
}

// gateQuery is one query's outcome: the exact part, plus per-phase
// allocation totals under the memory guard.
type gateQuery struct {
	gateExact
	WitnessAllocBytes int64 `json:"witness_alloc_bytes"`
	EncodeAllocBytes  int64 `json:"encode_alloc_bytes"`
	SolveAllocBytes   int64 `json:"solve_alloc_bytes"`
}

// gateExact is what must repeat exactly. A timed-out query has no
// answers or counters.
type gateExact struct {
	Query      string `json:"query"`
	Timeout    bool   `json:"timeout,omitempty"`
	Digest     string `json:"digest,omitempty"`
	SATCalls   int64  `json:"sat_calls"`
	MaxSATRuns int    `json:"maxsat_runs"`
	Vars       int    `json:"cnf_vars"`
	Clauses    int    `json:"cnf_clauses"`
}

// TestGoldenCounters is the bench gate. It runs the DBGen suite under
// DefaultConfig and checks every query's answer digest, SAT calls,
// MaxSAT runs, CNF size and timeout flag exactly against the golden
// file, and the memory figures against the 1.5× + 8 MiB guard. No
// wall-clock figure is checked. -short skips the sf=0.01 leg.
//
// The engine runs sequentially. The exact figures are the same at any
// parallelism, but the per-phase allocation totals are process-wide
// deltas that concurrent phases count more than once, so a golden file
// recorded on one core count would not hold on another.
//
// On a mismatch the test prints the fresh golden JSON (not under
// -short, which measures only one leg). A change that
// legitimately moves a figure pastes it into testdata/gate_golden.json
// and says why in CHANGES.md.
func TestGoldenCounters(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want gateGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	cfg := DefaultConfig()
	cfg.Parallelism = 1
	r := NewRunner(cfg)
	// The paper-calibrated small scale runs every workload query; the 10×
	// scale keeps to the scalar queries to bound its run time.
	scales := []struct {
		sf      float64
		queries []tpch.Query
	}{
		{cfg.SFSmall, append(tpch.ScalarQueries(), tpch.GroupedQueries()...)},
		{0.01, tpch.ScalarQueries()},
	}
	var got gateGolden
	for _, sc := range scales {
		if testing.Short() && sc.sf != cfg.SFSmall {
			t.Logf("-short: sf=%g leg skipped", sc.sf)
			continue
		}
		leg, err := measureLeg(r, sc.sf, sc.queries)
		if err != nil {
			t.Fatal(err)
		}
		got.Legs = append(got.Legs, leg)
	}
	diffs := diffGolden(want, got)
	for _, d := range diffs {
		t.Error(d)
	}
	switch {
	case len(diffs) == 0:
	case testing.Short():
		t.Log("run without -short to print the fresh golden file")
	default:
		fresh, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("fresh %s:\n%s", goldenPath, fresh)
	}
}

// measureLeg builds the instance at sf, runs the queries on one engine,
// and tears everything down, so the next leg starts from the same heap
// baseline. The instance is built directly, not through the runner's
// dbgen cache, so nothing outlives the measurement.
func measureLeg(r *Runner, sf float64, queries []tpch.Query) (gateLeg, error) {
	runtime.GC()
	base := int64(liveHeap())
	sampler := startPeakSampler(2 * time.Millisecond)
	leg, err := runLeg(r, sf, queries, base)
	leg.PeakHeap = max(int64(sampler.Stop())-base, leg.InstanceBytes) // the sampler can miss the post-build plateau
	runtime.GC()
	return leg, err
}

func runLeg(r *Runner, sf float64, queries []tpch.Query, base int64) (gateLeg, error) {
	leg := gateLeg{SF: sf}
	in, err := tpch.DemoInstance(sf, 10, r.cfg.Seed)
	if err != nil {
		return leg, err
	}
	runtime.GC()
	leg.InstanceBytes = int64(liveHeap()) - base
	leg.PeakLive = leg.InstanceBytes
	eng, err := r.engine(in)
	if err != nil {
		return leg, err
	}
	for _, q := range queries {
		tr, err := q.Translate()
		if err != nil {
			return leg, err
		}
		rep, err := eng.RangeAnswersContext(r.ctx, tr.Aggs[0].Query)
		if timedOut(err) {
			leg.Queries = append(leg.Queries, gateQuery{gateExact: gateExact{Query: q.Name, Timeout: true}})
			continue
		}
		if err != nil {
			return leg, fmt.Errorf("sf=%g %s: %w", sf, q.Name, err)
		}
		st := rep.Stats
		leg.Queries = append(leg.Queries, gateQuery{
			gateExact: gateExact{
				Query:      q.Name,
				Digest:     core.AnswersDigest(rep.Answers),
				SATCalls:   st.SATCalls,
				MaxSATRuns: st.MaxSATRuns,
				Vars:       st.Vars,
				Clauses:    st.Clauses,
			},
			WitnessAllocBytes: st.WitnessAllocBytes,
			EncodeAllocBytes:  st.EncodeAllocBytes,
			SolveAllocBytes:   st.SolveAllocBytes,
		})
		// Settle the heap: what survives a GC here is the store plus the
		// engine's caches (hash indexes, constraint context).
		runtime.GC()
		leg.PeakLive = max(leg.PeakLive, int64(liveHeap())-base)
	}
	return leg, nil
}

// diffGolden lists every way got departs from want. A leg missing from
// got was skipped (-short) and is not compared.
func diffGolden(want, got gateGolden) []string {
	var diffs []string
	wantLegs := map[float64]gateLeg{}
	for _, l := range want.Legs {
		wantLegs[l.SF] = l
	}
	for _, g := range got.Legs {
		w, ok := wantLegs[g.SF]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("sf=%g: leg missing from the golden file", g.SF))
			continue
		}
		mem := func(name string, old, new int64) {
			if grewPastGuard(old, new) {
				diffs = append(diffs, fmt.Sprintf("sf=%g %s: %.2f MiB -> %.2f MiB (guard %.1f× + %d MiB)",
					g.SF, name, mib(old), mib(new), memGuardRatio, memGuardFloor>>20))
			}
		}
		mem("instance_bytes", w.InstanceBytes, g.InstanceBytes)
		mem("peak_heap", w.PeakHeap, g.PeakHeap)
		mem("peak_live", w.PeakLive, g.PeakLive)

		wantQ := map[string]gateQuery{}
		for _, q := range w.Queries {
			wantQ[q.Query] = q
		}
		seen := map[string]bool{}
		for _, gq := range g.Queries {
			seen[gq.Query] = true
			wq, ok := wantQ[gq.Query]
			if !ok {
				diffs = append(diffs, fmt.Sprintf("sf=%g %s: query missing from the golden file", g.SF, gq.Query))
				continue
			}
			if gq.gateExact != wq.gateExact {
				diffs = append(diffs, fmt.Sprintf("sf=%g %s: got %+v, want %+v", g.SF, gq.Query, gq.gateExact, wq.gateExact))
			}
			mem(gq.Query+" witness_alloc_bytes", wq.WitnessAllocBytes, gq.WitnessAllocBytes)
			mem(gq.Query+" encode_alloc_bytes", wq.EncodeAllocBytes, gq.EncodeAllocBytes)
			mem(gq.Query+" solve_alloc_bytes", wq.SolveAllocBytes, gq.SolveAllocBytes)
		}
		for _, wq := range w.Queries {
			if !seen[wq.Query] {
				diffs = append(diffs, fmt.Sprintf("sf=%g %s: query missing from the run", g.SF, wq.Query))
			}
		}
	}
	return diffs
}

// grewPastGuard reports growth past the memory guard. A zero golden
// value means "not measured" (a phase that allocated nothing at all is
// indistinguishable), so it never flags.
func grewPastGuard(old, new int64) bool {
	return old > 0 && float64(new) > memGuardRatio*float64(old) && new-old > memGuardFloor
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }

// liveHeap samples the current heap (HeapAlloc).
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// peakSampler polls the heap on a fixed interval and keeps the maximum
// observed value.
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

// The tests below pin what the gate's diff catches, on mutated copies
// of the committed golden file. Their names are kept from the run-record
// comparison the gate replaced; each covers the same concern.

// diffCase mutates a copy of the golden file and says whether
// diffGolden must flag the result against the unmutated file.
type diffCase struct {
	name   string
	mutate func(g *gateGolden)
	flag   bool
}

// loadGateGolden reads and decodes the committed golden file.
func loadGateGolden(t *testing.T) gateGolden {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var g gateGolden
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	if len(g.Legs) != 2 {
		t.Fatalf("golden legs = %d, want 2", len(g.Legs))
	}
	return g
}

func checkDiffCases(t *testing.T, cases []diffCase) {
	t.Helper()
	want := loadGateGolden(t)
	for _, c := range cases {
		got := loadGateGolden(t)
		c.mutate(&got)
		diffs := diffGolden(want, got)
		if flagged := len(diffs) > 0; flagged != c.flag {
			t.Errorf("%s: flagged = %v (%v), want %v", c.name, flagged, diffs, c.flag)
		}
	}
}

// bigLeg is the sf=0.01 leg, whose heap clears the guard's byte floor.
func bigLeg(g *gateGolden) *gateLeg { return &g.Legs[len(g.Legs)-1] }

// TestCompareRecordsAnswersAndTimeouts: answer drift with an unchanged
// answer count, a counter change, and a timeout appearing or clearing
// all fail the gate's exact match.
func TestCompareRecordsAnswersAndTimeouts(t *testing.T) {
	checkDiffCases(t, []diffCase{
		{"unchanged", func(*gateGolden) {}, false},
		{"digest", func(g *gateGolden) { g.Legs[0].Queries[0].Digest = "0000000000000000" }, true},
		{"sat calls", func(g *gateGolden) { g.Legs[0].Queries[0].SATCalls++ }, true},
		{"maxsat runs", func(g *gateGolden) { g.Legs[0].Queries[0].MaxSATRuns++ }, true},
		{"cnf vars", func(g *gateGolden) { g.Legs[0].Queries[0].Vars++ }, true},
		{"cnf clauses", func(g *gateGolden) { g.Legs[0].Queries[0].Clauses-- }, true},
		{"new timeout", func(g *gateGolden) {
			g.Legs[0].Queries[0] = gateQuery{gateExact: gateExact{Query: g.Legs[0].Queries[0].Query, Timeout: true}}
		}, true},
	})
	// A timeout clearing: the golden file times out on a query the run
	// answers.
	want := loadGateGolden(t)
	q := &bigLeg(&want).Queries[0]
	*q = gateQuery{gateExact: gateExact{Query: q.Query, Timeout: true}}
	if d := diffGolden(want, loadGateGolden(t)); len(d) == 0 {
		t.Error("cleared timeout: not flagged")
	}
}

// TestCompareRecordsFlagsMemoryGrowth: growth past the 1.5× + 8 MiB
// guard fails the gate, for the leg figures and per-phase allocations.
func TestCompareRecordsFlagsMemoryGrowth(t *testing.T) {
	checkDiffCases(t, []diffCase{
		{"peak_live 2x", func(g *gateGolden) { bigLeg(g).PeakLive *= 2 }, true},
		{"peak_heap 2x", func(g *gateGolden) { bigLeg(g).PeakHeap *= 2 }, true},
		{"instance_bytes 2x", func(g *gateGolden) { bigLeg(g).InstanceBytes *= 2 }, true},
	})
	// Each phase's allocations, from a measured 1 MiB to 65 MiB.
	for _, phase := range []func(*gateQuery) *int64{
		func(q *gateQuery) *int64 { return &q.WitnessAllocBytes },
		func(q *gateQuery) *int64 { return &q.EncodeAllocBytes },
		func(q *gateQuery) *int64 { return &q.SolveAllocBytes },
	} {
		want, got := loadGateGolden(t), loadGateGolden(t)
		*phase(&bigLeg(&want).Queries[0]) = 1 << 20
		*phase(&bigLeg(&got).Queries[0]) = 65 << 20
		if d := diffGolden(want, got); len(d) == 0 {
			t.Error("alloc growth: not flagged")
		}
	}
}

// TestCompareRecordsMemoryNoiseGuards: growth inside the ratio, growth
// under the byte floor, a zero (unmeasured) golden value and shrinking
// memory never fail the gate.
func TestCompareRecordsMemoryNoiseGuards(t *testing.T) {
	checkDiffCases(t, []diffCase{
		{"peak_live 1.4x", func(g *gateGolden) { bigLeg(g).PeakLive = bigLeg(g).PeakLive * 14 / 10 }, false},
		{"small leg under the floor", func(g *gateGolden) { g.Legs[0].PeakLive *= 2 }, false},
		{"shrinking", func(g *gateGolden) { bigLeg(g).PeakLive /= 4 }, false},
	})
	// A zero golden value means "not measured": no growth from it flags.
	want := loadGateGolden(t)
	bigLeg(&want).Queries[0].SolveAllocBytes = 0
	got := loadGateGolden(t)
	bigLeg(&got).Queries[0].SolveAllocBytes = 1 << 30
	if d := diffGolden(want, got); len(d) > 0 {
		t.Errorf("zero golden value treated as infinite growth: %v", d)
	}
}

// TestCompareRecordsUnmatchedRuns: a query missing from either side, or
// a leg missing from the golden file, fails the gate; a leg the run
// skipped (-short) does not.
func TestCompareRecordsUnmatchedRuns(t *testing.T) {
	checkDiffCases(t, []diffCase{
		{"missing query", func(g *gateGolden) { g.Legs[0].Queries = g.Legs[0].Queries[1:] }, true},
		{"extra query", func(g *gateGolden) {
			g.Legs[0].Queries = append(g.Legs[0].Queries, gateQuery{gateExact: gateExact{Query: "Q99"}})
		}, true},
		{"unknown leg", func(g *gateGolden) { g.Legs[0].SF = 0.5 }, true},
		{"skipped leg", func(g *gateGolden) { g.Legs = g.Legs[:1] }, false},
	})
}

// TestLoadRecordsRoundTrip: the golden file round-trips through JSON,
// so what a failing run prints is what the next run reads.
func TestLoadRecordsRoundTrip(t *testing.T) {
	want := loadGateGolden(t)
	again, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var rt gateGolden
	if err := json.Unmarshal(again, &rt); err != nil {
		t.Fatal(err)
	}
	if d := diffGolden(want, rt); len(d) > 0 {
		t.Fatalf("round trip differs: %v", d)
	}
	if len(rt.Legs) != len(want.Legs) || len(rt.Legs[0].Queries) != len(want.Legs[0].Queries) {
		t.Fatalf("round trip lost legs or queries: %d/%d legs", len(rt.Legs), len(want.Legs))
	}
	for i, l := range want.Legs {
		for j, q := range l.Queries {
			if rt.Legs[i].Queries[j] != q {
				t.Errorf("sf=%g %s: round trip %+v, want %+v", l.SF, q.Query, rt.Legs[i].Queries[j], q)
			}
		}
	}
}
