package obsv

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d", c.Value())
	}
	if r.Counter("c_total") != c {
		t.Error("get-or-create returned a different counter")
	}

	g := r.Gauge("g")
	g.Set(7)
	g.Add(-2)
	g.SetMax(3) // below current: no-op
	if g.Value() != 5 {
		t.Errorf("gauge = %d", g.Value())
	}
	g.SetMax(11)
	if g.Value() != 11 {
		t.Errorf("gauge after SetMax = %d", g.Value())
	}

	h := r.Histogram("h_seconds", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	snap := r.Snapshot()
	hs := snap.Histograms["h_seconds"]
	if hs.Count != 3 || hs.Inf != 1 || hs.Counts[0] != 1 || hs.Counts[1] != 1 {
		t.Errorf("histogram snapshot = %+v", hs)
	}
	if math.Abs(hs.Sum-55.5) > 1e-9 {
		t.Errorf("sum = %v", hs.Sum)
	}
	if snap.Counters["c_total"] != 5 || snap.Gauges["g"] != 11 {
		t.Errorf("snapshot = %+v", snap)
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Error("reusing a counter name as a gauge must panic")
		}
	}()
	r.Gauge("x")
}

// TestConcurrentMetrics hammers one registry from many goroutines; run
// under -race it gates the lock-free implementations (the Makefile's
// race target).
func TestConcurrentMetrics(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("hits_total").Inc()
				r.Gauge("depth").Set(int64(i))
				r.Gauge("max_depth").SetMax(int64(w*perWorker + i))
				r.Histogram("lat_seconds", nil).Observe(float64(i%100) / 1000)
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot()
	if got := snap.Counters["hits_total"]; got != workers*perWorker {
		t.Errorf("hits_total = %d, want %d", got, workers*perWorker)
	}
	if got := snap.Gauges["max_depth"]; got != workers*perWorker-1 {
		t.Errorf("max_depth = %d, want %d", got, workers*perWorker-1)
	}
	h := snap.Histograms["lat_seconds"]
	if h.Count != workers*perWorker {
		t.Errorf("histogram count = %d", h.Count)
	}
	var bucketTotal int64
	for _, c := range h.Counts {
		bucketTotal += c
	}
	if bucketTotal+h.Inf != h.Count {
		t.Errorf("bucket totals %d+%d != count %d", bucketTotal, h.Inf, h.Count)
	}
}

// TestPrometheusExposition checks the text format line by line: every
// line is either a "# TYPE name kind" comment or "name[{labels}] value"
// with a parseable value, histograms have monotone cumulative buckets
// ending in +Inf, and output is deterministic.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter(MetricSATCalls).Add(12)
	r.Gauge(MetricCNFVarsMax).SetMax(300)
	h := r.Histogram(MetricPhaseSecondsPrefix+"solve", nil)
	h.Observe(0.002)
	h.Observe(3.5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	var prevCum int64
	var sawInf bool
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Errorf("bad TYPE line %q", line)
			}
			switch fields[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Errorf("bad kind in %q", line)
			}
			prevCum, sawInf = 0, false
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		name, value := line[:sp], line[sp+1:]
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Errorf("unparseable value in %q: %v", line, err)
		}
		if strings.Contains(name, "_bucket{le=") {
			cum, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				t.Errorf("bucket count not integer in %q", line)
			}
			if cum < prevCum {
				t.Errorf("cumulative bucket decreased at %q", line)
			}
			prevCum = cum
			if strings.Contains(name, `le="+Inf"`) {
				sawInf = true
			}
		}
	}
	if !strings.Contains(out, fmt.Sprintf("%s 12\n", MetricSATCalls)) {
		t.Errorf("missing counter sample:\n%s", out)
	}
	if !sawInf {
		t.Errorf("histogram without +Inf bucket:\n%s", out)
	}
	if !strings.Contains(out, MetricPhaseSecondsPrefix+"solve_count 2") {
		t.Errorf("missing histogram count:\n%s", out)
	}

	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != out {
		t.Error("exposition is not deterministic")
	}
}

// TestHistogramDuplicateBounds pins the dedup of bucket upper bounds:
// cavsatd appends the SLO latency target to DurationBuckets, and when it
// coincides with an existing bound the exposition must still emit one
// _bucket line per le value (Prometheus rejects duplicate series).
func TestHistogramDuplicateBounds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("dup_seconds", []float64{1, 0.25, 1, 4})
	if got := len(h.buckets); got != 3 {
		t.Fatalf("deduped bucket count = %d, want 3", got)
	}
	h.Observe(0.9)
	h.Observe(2)

	lh := r.LabeledHistogram("dup_labeled_seconds", []string{"route"}, []float64{1, 0.25, 1, 4}, 8)
	if got := len(lh.buckets); got != 3 {
		t.Fatalf("deduped labeled bucket count = %d, want 3", got)
	}
	lh.With("sat").Observe(0.9)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if sp := strings.LastIndexByte(line, ' '); sp > 0 && strings.Contains(line, "_bucket{") {
			seen[line[:sp]]++
		}
	}
	for name, n := range seen {
		if n > 1 {
			t.Errorf("duplicate bucket series %q emitted %d times:\n%s", name, n, buf.String())
		}
	}
	if seen[`dup_seconds_bucket{le="1"}`] != 1 {
		t.Errorf("missing dup_seconds le=1 bucket:\n%s", buf.String())
	}
	if seen[`dup_labeled_seconds_bucket{route="sat",le="1"}`] != 1 {
		t.Errorf("missing labeled le=1 bucket:\n%s", buf.String())
	}
}
