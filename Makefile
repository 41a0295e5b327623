GO ?= go

.PHONY: all build test vet race bench fuzz cavbench ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

# Race-hammers the concurrency-sensitive packages: the metrics registry
# and the debug HTTP server (live /metrics + /debug/trace scrapes racing
# the instrumentation writers), the SAT solver (progress callbacks and
# cooperative interrupts fire from inside the search), MaxHS and its RC2
# fallback under cancellation, the shared worker pool and the engine
# running on it (parallel groups/components/candidate shards) with the
# flight recorder fed from worker goroutines, the parallel witness
# enumerator (shared evaluator, plan/index caches), the bench harness,
# the facade (one System hammered by concurrent QueryContext callers),
# the query service (admission gate handoffs, singleflight coalescing,
# hot tenant re-attach), and the fact store (frozen columnar instances
# and mmap-backed snapshots read by concurrent query workers while the
# dictionary and arenas must stay immutable). -short skips the slowest
# property-test sweeps so the run stays usable on small CI boxes.
race:
	$(GO) test -race -short . ./internal/obsv/... ./internal/sat/... ./internal/maxsat/... ./internal/core/... ./internal/cq/... ./internal/bench/... ./internal/server/... ./internal/planner/... ./internal/conquer/... ./internal/db/... ./internal/workpool/...

# Micro-benchmarks: the clone-vs-rebuild and shared-base suites in
# sat/maxsat/core (incremental solving), the compiled evaluation and
# key-fast-path-vs-generic constraint suites in cq/constraints, the
# memoized-vs-fresh rewriting index suite in conquer (the planner fast
# path), plus the end-to-end harness benchmarks. Pipe two runs through
# benchstat to compare.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/sat/ ./internal/maxsat/ ./internal/core/ ./internal/cq/ ./internal/constraints/ ./internal/conquer/ ./internal/bench/

# Fuzz smoke: a bounded run of the planner equivalence fuzzer
# (planner-auto ≡ forced-SAT ≡ exhaustive repair enumeration on random
# instances). The committed seed corpus always runs as part of `make
# test`; this target additionally mutates for FUZZTIME.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzPlannerEquivalence -fuzztime=$(FUZZTIME) ./internal/planner/

# The benchmark harness is its own module (cavbench/go.mod), so the
# root-module build and tests never compile it: vet and test it here so
# a change to an API it imports fails before the benchmark does.
cavbench:
	$(GO) -C cavbench vet .
	$(GO) -C cavbench test .

ci: build vet test race cavbench
