GO ?= go

.PHONY: all build test vet race bench fuzz cavbench ci

all: build

build:
	$(GO) build ./...

# Includes the bench gate (internal/bench TestGoldenCounters), which
# checks the DBGen suite's work counters and answer digests against a
# golden file; see internal/bench/gate_test.go.
test:
	$(GO) test ./...

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

# Race-hammers the concurrency-sensitive packages: the metrics registry
# and the debug HTTP handler (live /metrics + /debug/trace scrapes racing
# the instrumentation writers), the SAT solver (progress callbacks and
# cooperative interrupts fire from inside the search), MaxHS and its RC2
# fallback under cancellation, the shared worker pool and the engine
# running on it (parallel groups/components/candidate shards), the
# parallel witness enumerator (shared evaluator, plan/index caches), the
# bench harness, the facade (one System hammered by concurrent
# QueryContext callers), the query service (admission gate handoffs, singleflight coalescing,
# hot tenant re-attach), and the fact store (frozen columnar instances
# and mmap-backed snapshots read by concurrent query workers while the
# dictionary and arenas must stay immutable), and the binaries (cavsatd's
# run serves HTTP and shuts down on context cancel). -short skips the slowest
# property-test sweeps and the bench gate's sf=0.01 leg so the run stays
# usable on small CI boxes.
race:
	$(GO) test -race -short . ./internal/obsv/... ./internal/sat/... ./internal/maxsat/... ./internal/core/... ./internal/cq/... ./internal/bench/... ./internal/server/... ./internal/planner/... ./internal/conquer/... ./internal/db/... ./internal/workpool/... ./cmd/...

# Micro-benchmarks: core's group elimination vs encode + MaxHS
# component solve on a single-group and a coupled width-2 component
# (BenchmarkComponentSolve), the compiled evaluation
# (BenchmarkEvalWideJoin: a join into a 14-column relation that reads
# two columns) and the witness bag it builds (BenchmarkWitnessBag:
# ungrouped, and grouped with a fold as the engine asks for it),
# Medigap's violation step on a freshly opened snapshot,
# FD partitions vs generic self-joins (BenchmarkMinimalViolations/
# partition and /generic in constraints), the rewriting executor over
# the instance's memoised key partitions in conquer (the planner fast
# path), the fact store's dictionary interning (BenchmarkIntern), the
# partition kernel alone (BenchmarkPartition: a cold partition of the
# sf 0.01 lineitem on l_orderkey), a cold key index build over a heap
# instance (BenchmarkKeyIndexBuild) and a snapshot open that adopts
# and validates the stored index (BenchmarkOpenSnapshotAdopt), plus
# the end-to-end harness benchmarks. Pipe two runs through benchstat
# to compare.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/core/ ./internal/cq/ ./internal/constraints/ ./internal/conquer/ ./internal/db/ ./internal/bench/

# Fuzz smoke: a bounded run of the planner equivalence fuzzer
# (planner-auto ≡ forced-rewrite, wherever the rewriting answers, ≡
# exhaustive repair enumeration on random instances), of the
# group-elimination fuzzer (elimination ≡
# encode + MaxHS ≡ exhaustive repair enumeration on random keys-mode
# components coupling up to six groups, and a lowered table budget
# declining exactly the components whose largest table exceeds it; on
# the same cases the consistency filter and the MIN/MAX probes, by
# elimination and with lowered budgets on SAT, ≡ enumeration) and
# of the evaluator fuzzer (the compiled CQ evaluator's witness bag —
# fact sets, answers and multiplicities — ≡ the brute-force reference's,
# sequential and, on a self-join whose duplicates meet across chunks,
# at parallelism 4; its groups' witnesses and folds ≡ the reference bag
# split by key and by safety) and of
# the snapshot loader fuzzer (no byte string panics the loader; what it
# accepts passes or fails VerifySnapshot with a typed error, reads back,
# looks its strings up and answers key index lookups), and of the parsers
# of outside input: SQL text against the TPC-H schema (no panic; what
# translates has an aggregate over a non-empty union), schema files (no
# panic; what reads survives a write and a re-read) and W3C traceparent
# headers (no panic; a version-00 header that parses re-renders with the
# same ids), and of the query service's read-only HTTP surface: /query,
# /debug/trace, /debug/slo, /healthz and /metrics under arbitrary
# methods, query strings and bodies (no panic; a documented status; a
# /query body that decodes as an answer on 200 and as a typed error
# otherwise). The
# seed corpora always run as part of `make test`; this target
# additionally mutates each for FUZZTIME.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzPlannerEquivalence -fuzztime=$(FUZZTIME) ./internal/planner/
	$(GO) test -run='^$$' -fuzz=FuzzClosedForm -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzEvalAgainstNaive -fuzztime=$(FUZZTIME) ./internal/cq/
	$(GO) test -run='^$$' -fuzz=FuzzLoadSnapshotBytes -fuzztime=$(FUZZTIME) ./internal/db/
	$(GO) test -run='^$$' -fuzz=FuzzParseAndTranslate -fuzztime=$(FUZZTIME) ./internal/sqlparse/
	$(GO) test -run='^$$' -fuzz=FuzzSchemaFileRead -fuzztime=$(FUZZTIME) ./internal/schemafile/
	$(GO) test -run='^$$' -fuzz=FuzzParseTraceparent -fuzztime=$(FUZZTIME) ./internal/obsv/
	$(GO) test -run='^$$' -fuzz=FuzzServeHTTP -fuzztime=$(FUZZTIME) ./internal/server/

# The benchmark harness is its own module (cavbench/go.mod), so the
# root-module build and tests never compile it: vet and test it here so
# a change to an API it imports fails before the benchmark does.
cavbench:
	$(GO) -C cavbench vet .
	$(GO) -C cavbench test .

ci: build vet test race cavbench
