package obsv

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4): a "# TYPE" line per family followed by sample
// lines, histograms with cumulative le-labelled buckets plus _sum and
// _count. Output is sorted by name, so it is byte-stable for a given
// snapshot — scrape endpoints and tests both rely on that.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.Snapshot().WritePrometheus(w)
}

// WritePrometheus renders the snapshot in the Prometheus text format.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for _, name := range sortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, s.Gauges[name]); err != nil {
			return err
		}
	}
	// Histogram names may carry a label set (a LabeledHistogram series,
	// `family{k="v"}`): the TYPE header names the bare family once, and
	// each series merges its labels with the le label on bucket lines.
	lastFamily := ""
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		family, labels := splitSeries(name)
		if family != lastFamily {
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", family); err != nil {
				return err
			}
			lastFamily = family
		}
		var cum int64
		for i, ub := range h.Buckets {
			cum += h.Counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", family, labels, formatFloat(ub), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", family, labels, cum+h.Inf); err != nil {
			return err
		}
		suffix := ""
		if labels != "" {
			suffix = "{" + labels[:len(labels)-1] + "}"
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", family, suffix, formatFloat(h.Sum)); err != nil {
			return err
		}
		// The 0.0.4 format requires _count == the +Inf bucket; Count is
		// the buckets' total.
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", family, suffix, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// splitSeries splits a possibly-labeled series name into its bare
// family and the inner label text ready for merging with more labels
// (`foo{a="b"}` → `foo`, `a="b",`; unlabeled names return "", so
// `fmt.Sprintf("%s_bucket{%sle=...}", family, labels)` renders both
// shapes correctly).
func splitSeries(name string) (family, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	inner := name[i+1 : len(name)-1]
	if inner == "" {
		return name[:i], ""
	}
	return name[:i], inner + ","
}

// metricFamily strips a trailing label set from a metric name:
// `foo_total{route="sat"}` → `foo_total`. Unlabelled names pass through.
func metricFamily(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
