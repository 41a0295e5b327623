package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// blockQuantile cuts xs, kept in the order the statements were sent,
// into consecutive blocks of n and returns the first quartile of the
// blocks' q-quantiles, leaving out a trailing partial block; with fewer
// than two whole blocks it is the q-quantile of all of xs.
//
// On a shared virtual machine the hypervisor takes the CPUs away for
// seconds at a time (steal time): while the window of a serve run was
// sampled once a second, a fifth of the machine's CPU time went
// elsewhere in some seconds and none in others. That only ever adds
// time, and it moves the blocks it hits. The lower quartile across
// blocks follows the blocks it spared, and a change in the program
// moves every block.
func blockQuantile(xs []float64, n int, q float64) float64 {
	if n <= 0 || len(xs) < 2*n {
		return quantile(xs, q)
	}
	var per []float64
	for i := 0; i+n <= len(xs); i += n {
		per = append(per, quantile(xs[i:i+n], q))
	}
	return quantile(per, 0.25)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// tailQuantile is the latency percentile the benchmark reports beside
// the median. Latency quantiles are taken over blocks of 14 to 24
// statements, where p99 is a block's slowest statement and p95 nearly
// so. Over a whole window p95 has enough samples, but it falls exactly
// on the edge of serve's most expensive template (Q10 is 5 % of its
// requests), so it flipped between two clusters from run to run.
const tailQuantile = 0.90

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
