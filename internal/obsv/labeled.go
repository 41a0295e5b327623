package obsv

import (
	"sort"
	"strings"
	"sync"
)

// OverflowLabel is the label value that absorbs every label tuple seen
// after a labeled family reached its cardinality cap. A scrape showing
// `family{...="_overflow"}` with a growing count means the workload
// produces more distinct label tuples than the family was provisioned
// for — the family stays bounded instead of growing without limit.
const OverflowLabel = "_overflow"

// DefaultLabeledSeries is the per-family series cap used when a labeled
// family is created with maxSeries <= 0.
const DefaultLabeledSeries = 64

// escapeLabelValue escapes a label value per the Prometheus 0.0.4 text
// format: backslash, double quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// seriesName renders the canonical full series name for a label tuple:
// `family{k1="v1",k2="v2"}` with labels in declared order and values
// escaped. The canonical form keys the registry maps and is what the
// exposition prints, so equal tuples always hit the same series.
func seriesName(family string, labels, values []string) string {
	var b strings.Builder
	b.Grow(len(family) + 16*len(labels))
	b.WriteString(family)
	b.WriteByte('{')
	for i, k := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// LabeledHistogram is a cardinality-bounded family of histograms
// sharing one metric name, a fixed label schema and one bucket layout.
// With returns the series for a label tuple, creating it on first use;
// past maxSeries distinct tuples, unseen tuples share the all-_overflow
// series. Series live in the owning Registry under their canonical
// `family{k="v",...}` name, so snapshots and the Prometheus exposition
// pick them up with no extra plumbing.
type LabeledHistogram struct {
	family   string
	labels   []string
	max      int
	overflow string // the all-_overflow series name
	buckets  []float64
	reg      *Registry

	mu     sync.RWMutex
	series map[string][]string // canonical series name → label values
}

// With returns the histogram for the given label values (declared
// order).
func (lh *LabeledHistogram) With(values ...string) *Histogram {
	return lh.reg.Histogram(lh.resolve(values), lh.buckets)
}

// resolve maps a label tuple to its canonical series name, rerouting to
// the overflow tuple when the tuple is new and the family is at cap.
// The overflow series itself never counts against the cap, so a family
// holds at most max+1 live series.
func (lh *LabeledHistogram) resolve(values []string) string {
	if len(values) != len(lh.labels) {
		panic("obsv: labeled family " + lh.family + " called with wrong label count")
	}
	name := seriesName(lh.family, lh.labels, values)
	lh.mu.RLock()
	_, ok := lh.series[name]
	n := len(lh.series)
	lh.mu.RUnlock()
	if ok {
		return name
	}
	if n >= lh.max {
		return lh.overflow
	}
	lh.mu.Lock()
	defer lh.mu.Unlock()
	if _, ok := lh.series[name]; !ok {
		if len(lh.series) >= lh.max {
			return lh.overflow
		}
		lh.series[name] = append([]string(nil), values...)
	}
	return name
}

func (lh *LabeledHistogram) overflowValues() []string {
	values := make([]string, len(lh.labels))
	for i := range values {
		values[i] = OverflowLabel
	}
	return values
}

// LabeledSeries is a point-in-time copy of one series of a labeled
// histogram family.
type LabeledSeries struct {
	Values []string // label values, aligned with the family's labels
	HistogramSnapshot
}

// Series copies every live series, sorted by canonical name, the
// overflow series last when it has been used.
func (lh *LabeledHistogram) Series() []LabeledSeries {
	type live struct {
		name   string
		values []string
	}
	lh.mu.RLock()
	all := make([]live, 0, len(lh.series)+1)
	for name, values := range lh.series {
		all = append(all, live{name, values})
	}
	lh.mu.RUnlock()
	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	all = append(all, live{lh.overflow, lh.overflowValues()})
	out := make([]LabeledSeries, 0, len(all))
	lh.reg.mu.RLock()
	defer lh.reg.mu.RUnlock()
	for _, l := range all {
		// With resolves a tuple before it registers the histogram, and
		// the overflow series exists only once the cap is reached.
		if h, ok := lh.reg.histograms[l.name]; ok {
			out = append(out, LabeledSeries{Values: append([]string(nil), l.values...), HistogramSnapshot: h.snapshot()})
		}
	}
	return out
}

// CountUnder returns the observations in buckets whose upper bound is at
// most limit. Callers that need an exact count — the SLO plane — must
// provision limit as a bucket bound.
func (h HistogramSnapshot) CountUnder(limit float64) int64 {
	var n int64
	for i, ub := range h.Buckets {
		if ub <= limit {
			n += h.Counts[i]
		}
	}
	return n
}

// LabeledHistogram returns the named labeled histogram family, creating
// it on first use with the given label names, bucket bounds (nil means
// DurationBuckets) and per-family series cap (maxSeries <= 0 means
// DefaultLabeledSeries). Later calls may pass nil labels; passing
// different label names is a programming error and panics.
func (r *Registry) LabeledHistogram(family string, labels []string, buckets []float64, maxSeries int) *LabeledHistogram {
	r.mu.RLock()
	lh, ok := r.labeledHistograms[family]
	r.mu.RUnlock()
	if ok {
		checkSameLabels(family, lh.labels, labels)
		return lh
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if lh, ok := r.labeledHistograms[family]; ok {
		checkSameLabels(family, lh.labels, labels)
		return lh
	}
	r.checkFree(family, "labeled histogram")
	if len(labels) == 0 {
		panic("obsv: labeled family " + family + " needs at least one label")
	}
	if buckets == nil {
		buckets = DurationBuckets
	}
	if maxSeries <= 0 {
		maxSeries = DefaultLabeledSeries
	}
	lh = &LabeledHistogram{
		family:  family,
		labels:  append([]string(nil), labels...),
		max:     maxSeries,
		buckets: sortDedupBounds(buckets),
		reg:     r,
		series:  map[string][]string{},
	}
	lh.overflow = seriesName(family, labels, lh.overflowValues())
	r.labeledHistograms[family] = lh
	return lh
}

func checkSameLabels(family string, have, want []string) {
	if want == nil {
		return
	}
	if len(have) != len(want) {
		panic("obsv: labeled family " + family + " re-registered with different labels")
	}
	for i := range have {
		if have[i] != want[i] {
			panic("obsv: labeled family " + family + " re-registered with different labels")
		}
	}
}
