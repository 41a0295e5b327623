package obsv

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// TestPrometheusGolden pins the full 0.0.4 text exposition of a small
// registry byte for byte — the promtool-style conformance check. Every
// family carries a # TYPE line, histogram buckets are cumulative with a
// +Inf bucket equal to _count, and the whole output is sorted by
// metric name.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_requests_total").Add(3)
	r.Gauge("app_heap_bytes").Set(7)
	h := r.Histogram("app_phase_seconds", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(3)

	want := strings.Join([]string{
		"# TYPE app_requests_total counter",
		"app_requests_total 3",
		"# TYPE app_heap_bytes gauge",
		"app_heap_bytes 7",
		"# TYPE app_phase_seconds histogram",
		`app_phase_seconds_bucket{le="1"} 1`,
		`app_phase_seconds_bucket{le="2"} 2`,
		`app_phase_seconds_bucket{le="+Inf"} 3`,
		"app_phase_seconds_sum 5",
		"app_phase_seconds_count 3",
		"",
	}, "\n")

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}

	// Byte-stability: a second render of the same state is identical.
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("exposition is not byte-stable across renders")
	}
}

// TestPrometheusHistogramInvariants checks the structural 0.0.4 rules on
// a histogram with data in every region: cumulative non-decreasing
// buckets, +Inf present and equal to _count.
func TestPrometheusHistogramInvariants(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("inv_seconds", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 5, 50, 500} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var prev int64 = -1
	var infVal, countVal int64 = -1, -2
	for _, line := range strings.Split(buf.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "inv_seconds_bucket"):
			fields := strings.Fields(line)
			v, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
			if err != nil {
				t.Fatalf("bucket line %q: %v", line, err)
			}
			if v < prev {
				t.Errorf("bucket counts not cumulative: %q after %d", line, prev)
			}
			prev = v
			if strings.Contains(line, `le="+Inf"`) {
				infVal = v
			}
		case strings.HasPrefix(line, "inv_seconds_count"):
			fields := strings.Fields(line)
			v, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			countVal = v
		}
	}
	if infVal != 5 {
		t.Errorf("+Inf bucket = %d, want 5", infVal)
	}
	if infVal != countVal {
		t.Errorf("+Inf bucket (%d) != _count (%d): 0.0.4 violation", infVal, countVal)
	}
}

// TestPrometheusLabelledFamily: histograms named with label sets share
// one # TYPE line per family — the bare family name, emitted once — and
// keep their own sample lines. Scrapers reject duplicate or
// label-bearing TYPE lines, so this is load-bearing.
func TestPrometheusLabelledFamily(t *testing.T) {
	r := NewRegistry()
	r.Histogram(`app_route_seconds{route="rewrite"}`, []float64{1}).Observe(5)
	r.Histogram(`app_route_seconds{route="sat"}`, []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	typeLine := "# TYPE app_route_seconds histogram"
	if got := strings.Count(out, typeLine); got != 1 {
		t.Errorf("TYPE line appears %d times, want exactly 1:\n%s", got, out)
	}
	if strings.Contains(out, "# TYPE app_route_seconds{") {
		t.Errorf("TYPE line carries a label set:\n%s", out)
	}
	for _, sample := range []string{
		`app_route_seconds_bucket{route="rewrite",le="1"} 0`,
		`app_route_seconds_count{route="rewrite"} 1`,
		`app_route_seconds_bucket{route="sat",le="1"} 1`,
		`app_route_seconds_count{route="sat"} 1`,
	} {
		if !strings.Contains(out, sample) {
			t.Errorf("missing sample %q:\n%s", sample, out)
		}
	}
}
