package obsv

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// countWhere totals the observations of every series whose label values
// pass keep (nil keeps all).
func countWhere(lh *LabeledHistogram, keep func(values []string) bool) int64 {
	var n int64
	for _, s := range lh.Series() {
		if keep == nil || keep(s.Values) {
			n += s.Count
		}
	}
	return n
}

func TestLabeledHistogramSeries(t *testing.T) {
	reg := NewRegistry()
	lh := reg.LabeledHistogram("req_seconds", []string{"route", "outcome"}, []float64{1}, 4)
	lh.With("sat", "ok").Observe(0.5)
	lh.With("sat", "ok").Observe(2)
	lh.With("rewrite", "ok").Observe(0.5)
	if lh.With("sat", "ok") != lh.With("sat", "ok") {
		t.Fatal("the same tuple must hit the same series")
	}
	series := lh.Series()
	if len(series) != 2 {
		t.Fatalf("series = %+v, want 2", series)
	}
	if s := series[1]; strings.Join(s.Values, ",") != "sat,ok" || s.Count != 2 || s.Sum != 2.5 || s.CountUnder(1) != 1 {
		t.Fatalf("sat series = %+v, want 2 observations summing 2.5, 1 under 1s", s)
	}
	if got := countWhere(lh, nil); got != 3 {
		t.Fatalf("family count = %d, want 3", got)
	}
	if got := countWhere(lh, func(values []string) bool { return values[0] == "sat" }); got != 2 {
		t.Fatalf("filtered count = %d, want 2", got)
	}
	// A later fetch with nil labels returns the same family; different
	// labels panic.
	if reg.LabeledHistogram("req_seconds", nil, nil, 0) != lh {
		t.Fatal("re-fetch returned a different family")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("re-registering with different labels did not panic")
			}
		}()
		reg.LabeledHistogram("req_seconds", []string{"tenant"}, nil, 0)
	}()
}

func TestLabeledHistogramOverflowCap(t *testing.T) {
	reg := NewRegistry()
	const cap = 3
	lh := reg.LabeledHistogram("capped_seconds", []string{"tenant"}, nil, cap)
	for i := 0; i < 10*cap; i++ {
		lh.With(fmt.Sprintf("t%02d", i)).Observe(0.01)
	}
	// The registry holds at most cap real series plus the overflow series.
	snap := reg.Snapshot()
	live := 0
	for name := range snap.Histograms {
		if strings.HasPrefix(name, "capped_seconds{") {
			live++
		}
	}
	if live != cap+1 {
		t.Fatalf("live series = %d, want cap+overflow = %d", live, cap+1)
	}
	over := snap.Histograms[`capped_seconds{tenant="_overflow"}`].Count
	if over != int64(10*cap-cap) {
		t.Fatalf("overflow absorbed %d, want %d", over, 10*cap-cap)
	}
	series := lh.Series()
	if last := series[len(series)-1]; last.Values[0] != OverflowLabel {
		t.Fatalf("last series %v, want the overflow series", last.Values)
	}
	if got := countWhere(lh, nil); got != 10*cap {
		t.Fatalf("count = %d, want %d (overflow must count)", got, 10*cap)
	}
	// Tuples seen before the cap keep their own series afterwards.
	lh.With("t00").Observe(0.01)
	if got := countWhere(lh, func(v []string) bool { return v[0] == "t00" }); got != 2 {
		t.Fatalf("pre-cap series count = %d, want 2", got)
	}
}

// TestLabeledCardinalityHammer slams one small-capped family from many
// goroutines with far more distinct tuples than the cap and asserts the
// bound held and no observation was lost. Run under -race this also
// exercises the resolve() fast/slow paths for data races.
func TestLabeledCardinalityHammer(t *testing.T) {
	reg := NewRegistry()
	const cap = 8
	lh := reg.LabeledHistogram("hammer_seconds", []string{"tenant", "route"}, []float64{0.1, 1}, cap)
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				lh.With(fmt.Sprintf("w%d-t%d", w, i%37), "sat").Observe(0.05)
			}
		}(w)
	}
	wg.Wait()

	hists := 0
	for name := range reg.Snapshot().Histograms {
		if strings.HasPrefix(name, "hammer_seconds{") {
			hists++
		}
	}
	if hists > cap+1 {
		t.Fatalf("cardinality bound violated: %d histogram series, cap %d(+overflow)", hists, cap)
	}
	var under, total int64
	for _, s := range lh.Series() {
		under += s.CountUnder(0.1)
		total += s.Count
	}
	if total != workers*perWorker || under != total {
		t.Fatalf("histogram counts = %d/%d, want %d/%d (no observation may be lost to overflow rerouting)",
			under, total, workers*perWorker, workers*perWorker)
	}
}

func TestLabelValueEscaping(t *testing.T) {
	reg := NewRegistry()
	lh := reg.LabeledHistogram("esc_seconds", []string{"q"}, []float64{1}, 4)
	lh.With(`say "hi"\` + "\n").Observe(0.5)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `esc_seconds_count{q="say \"hi\"\\\n"} 1`
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("exposition missing escaped series %q:\n%s", want, sb.String())
	}
}

// TestLabeledPrometheusGolden pins the labeled exposition byte-for-byte:
// one TYPE line per family, series sorted with the overflow series in
// place, histogram buckets merging the series labels with le, and
// _sum/_count carrying the label set.
func TestLabeledPrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("plain_total").Add(7)
	lh := reg.LabeledHistogram("lat_seconds", []string{"route", "outcome"}, []float64{1, 10}, 2)
	h := lh.With("sat", "ok")
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(20)
	lh.With("rewrite", "ok").Observe(2)
	lh.With("spill", "error").Observe(0.5) // past cap → overflow

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE plain_total counter
plain_total 7
# TYPE lat_seconds histogram
lat_seconds_bucket{route="_overflow",outcome="_overflow",le="1"} 1
lat_seconds_bucket{route="_overflow",outcome="_overflow",le="10"} 1
lat_seconds_bucket{route="_overflow",outcome="_overflow",le="+Inf"} 1
lat_seconds_sum{route="_overflow",outcome="_overflow"} 0.5
lat_seconds_count{route="_overflow",outcome="_overflow"} 1
lat_seconds_bucket{route="rewrite",outcome="ok",le="1"} 0
lat_seconds_bucket{route="rewrite",outcome="ok",le="10"} 1
lat_seconds_bucket{route="rewrite",outcome="ok",le="+Inf"} 1
lat_seconds_sum{route="rewrite",outcome="ok"} 2
lat_seconds_count{route="rewrite",outcome="ok"} 1
lat_seconds_bucket{route="sat",outcome="ok",le="1"} 1
lat_seconds_bucket{route="sat",outcome="ok",le="10"} 2
lat_seconds_bucket{route="sat",outcome="ok",le="+Inf"} 3
lat_seconds_sum{route="sat",outcome="ok"} 25.5
lat_seconds_count{route="sat",outcome="ok"} 3
`
	if got := sb.String(); got != want {
		t.Fatalf("labeled exposition drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestLabeledFamilyReservesBareName(t *testing.T) {
	reg := NewRegistry()
	reg.LabeledHistogram("fam_seconds", []string{"route"}, nil, 0)
	for kind, register := range map[string]func(){
		"counter":   func() { reg.Counter("fam_seconds") },
		"histogram": func() { reg.Histogram("fam_seconds", nil) },
		"series":    func() { reg.Counter(`fam_seconds{route="sat"}`) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a plain %s under a labeled family name did not panic", kind)
				}
			}()
			register()
		}()
	}
	// The family's own series names stay allowed.
	reg.Histogram(`fam_seconds{route="sat"}`, nil).Observe(1)
}
