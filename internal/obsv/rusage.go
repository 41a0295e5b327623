package obsv

import (
	"runtime/metrics"
)

// Resource metric names recorded by the per-phase accounting in
// internal/core. Like the duration metrics, they are a stable contract:
// the *_alloc_bytes counters accumulate the heap bytes allocated while a
// phase was running (process-global: under parallelism, concurrent
// phases each observe the shared allocation stream, the same caveat as
// the summed per-phase durations), and the GC counter accumulates
// collection cycles completed during measured phases. A call's live
// heap is a per-call fact: its journal line and explain report carry
// it, no gauge does.
const (
	MetricPhaseAllocPrefix = "aggcavsat_phase_alloc_bytes_" // + witness|encode|solve|rewrite
	MetricGCCycles         = "aggcavsat_gc_cycles_total"
)

// runtimeSampleNames are the runtime/metrics samples behind
// ResourceSample, chosen to keep one reading cheap (three uint64 reads,
// no histograms) so always-on per-phase accounting stays invisible next
// to encode/solve times.
var runtimeSampleNames = [...]string{
	"/gc/heap/allocs:bytes",
	"/memory/classes/heap/objects:bytes",
	"/gc/cycles/total:gc-cycles",
}

// ResourceSample is one point-in-time reading of the process's memory
// counters: cumulative heap allocations, live heap bytes, and completed
// GC cycles. Samples are process-global; phase attribution comes from
// differencing two samples around the phase (Since).
type ResourceSample struct {
	// AllocBytes is the cumulative total of heap bytes allocated since
	// process start (monotone).
	AllocBytes uint64
	// HeapBytes is the bytes of live heap objects at sampling time.
	HeapBytes uint64
	// GCCycles is the number of completed GC cycles since process start
	// (monotone).
	GCCycles uint64
}

// SampleResources reads the current resource counters via
// runtime/metrics. It allocates one small scratch slice per call and is
// safe for concurrent use.
func SampleResources() ResourceSample {
	samples := make([]metrics.Sample, len(runtimeSampleNames))
	for i, name := range runtimeSampleNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	var out ResourceSample
	for i := range samples {
		if samples[i].Value.Kind() != metrics.KindUint64 {
			continue // metric unsupported on this runtime; leave zero
		}
		v := samples[i].Value.Uint64()
		switch i {
		case 0:
			out.AllocBytes = v
		case 1:
			out.HeapBytes = v
		case 2:
			out.GCCycles = v
		}
	}
	return out
}

// ResourceDelta is the change between two resource samples bracketing an
// operation.
type ResourceDelta struct {
	// AllocBytes is the heap bytes allocated between the samples
	// (non-negative: the underlying counter is monotone).
	AllocBytes int64
	// HeapBytes is the live heap size at the end sample.
	HeapBytes int64
	// GCCycles is the number of collections completed between the
	// samples.
	GCCycles int64
}

// Since returns the delta from prev to s (s is the later sample).
func (s ResourceSample) Since(prev ResourceSample) ResourceDelta {
	return ResourceDelta{
		AllocBytes: int64(s.AllocBytes - prev.AllocBytes),
		HeapBytes:  int64(s.HeapBytes),
		GCCycles:   int64(s.GCCycles - prev.GCCycles),
	}
}
