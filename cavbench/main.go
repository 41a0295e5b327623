// Command cavbench is the repository's benchmark: it sets up one
// workload, drives the program through its public entry points for a
// fixed time, checks every answer against an independent execution, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 a second, traced window runs on a fresh set-up and the
// metrics are the per-layer ones, and the spans are written under
// .bench_build/traces. With -repeat N the command instead runs the
// workload N times with consecutive seeds and prints each metric's
// median and quartiles against its bound in BENCHMARK.json.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash cavbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	workload := flag.String("workload", "", "workload to run: serve, sat_batch or dc_refresh")
	seed := flag.Uint64("seed", 1, "seed of the workload's statement stream")
	seconds := flag.Float64("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced window and reports the per-layer metrics")
	repeat := flag.Int("repeat", 0, "run the workload this many times (seeds seed, seed+1, …) and print the spread of every metric")
	flag.Parse()

	var spec *workloadSpec
	var names []string
	for i := range workloads {
		names = append(names, workloads[i].name)
		if workloads[i].name == *workload {
			spec = &workloads[i]
		}
	}
	if spec == nil {
		fmt.Fprintf(os.Stderr, "cavbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := repeatRuns(os.Stdout, spec.name, *seed, *seconds, *trace, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "cavbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := runWorkload(context.Background(), os.Stdout, *spec, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cavbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cavbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
