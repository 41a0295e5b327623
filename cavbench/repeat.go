package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the repeat mode reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatRuns runs the workload n times, each in its own process with
// the next seed, and prints every metric's median, quartiles and spread
// (interquartile distance over the median) against its bound.
func repeatRuns(w io.Writer, workload string, seed uint64, seconds float64, trace, n int) error {
	bounds := map[string]float64{}
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bf benchmarkFile
		if err := json.Unmarshal(b, &bf); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range bf.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(s),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("run with seed %d: last line: %w", s, err)
		}
		fmt.Fprintf(w, "seed %d: correct=%v attempted=%d failed=%d", s, res.Correct, res.Attempted, res.Failed)
		keys := make([]string, 0, len(res.Metrics))
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
			keys = append(keys, name)
		}
		sort.Strings(keys)
		for _, name := range keys {
			fmt.Fprintf(w, " %s=%.4g", name, res.Metrics[name].Value)
		}
		fmt.Fprintln(w)
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %12s %12s %12s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, name := range names {
		q1, med, q3 := quartiles(values[name])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		verdict := ""
		if b, ok := bounds[name]; ok {
			switch {
			case name == "setup_s":
				verdict = fmt.Sprintf("%6.3f (set-up spread is not bounded)", b)
			case spread <= b/3:
				verdict = fmt.Sprintf("%6.3f steady", b)
			case spread <= b:
				verdict = fmt.Sprintf("%6.3f within bound", b)
			default:
				verdict = fmt.Sprintf("%6.3f UNSTEADY", b)
			}
		}
		fmt.Fprintf(w, "%-28s %12.4f %12.4f %12.4f %8.4f %s %s\n", name, q1, med, q3, spread, verdict, units[name])
	}
	return nil
}

// quartiles returns the first quartile, median and third quartile of
// xs by the "exclusive" method of Python's statistics.quantiles(xs,
// n=4), the one the benchmark's acceptance rule is stated in.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 2 {
		if len(s) == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	q := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := i * m / n
		delta := i*m - j*n
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(2), q(3)
}
