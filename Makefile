GO ?= go
# COVER_MIN is the floor for `make cover` over the pruning-critical and
# write-path packages (expr, parquetlite, scan, ocsserver, ingest,
# metastore).
# Measured combined coverage is ~81%; the floor leaves headroom for small
# refactors but fails the gate if tests are deleted wholesale.
COVER_MIN ?= 80.0

.PHONY: build test loc bench bench-build bench-paper faults faults-ingest fuzz-smoke determinism check \
	gates vet-telemetry vet-scan vet-join vet-ingest ci-fast ci-race ci cover

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# loc prints the line counts simplicity work is measured by: non-test Go
# outside bench/, Go tests outside bench/, and everything under bench/;
# then the exported top-level funcs, methods and types in non-test Go
# outside bench/ (a declaration starting a line, `func` or `type`, whose
# name is capitalised); then the session properties (`Session*` string
# constants), the `vet-*` gates `make gates` runs, the `// vet-*:allow`
# annotations that exempt a line from one, and the native fuzz targets.
loc:
	@echo "non-test: $$(find . -name '*.go' -not -path './bench/*' -not -name '*_test.go' | xargs cat | wc -l)"
	@echo "test:     $$(find . -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l)"
	@echo "bench:    $$(find ./bench -name '*.go' | xargs cat | wc -l)"
	@echo "exported: $$(find . -name '*.go' -not -path './bench/*' -not -name '*_test.go' | xargs cat | grep -cE '^func (\([^)]*\) )?[A-Z]|^type [A-Z]')"
	@echo "sessions: $$(find . -name '*.go' -not -path './bench/*' -not -name '*_test.go' | xargs cat | grep -cE '^(const |[[:space:]]+)Session[A-Z][A-Za-z]* += "')"
	@echo "gates:    $$(grep -E '^gates:' Makefile | tr ' ' '\n' | grep -c '^vet-')"
	@echo "allows:   $$(find . -name '*.go' -not -path './bench/*' -not -name '*_test.go' | xargs cat | grep -cE '// vet-[a-z]+:allow')"
	@echo "fuzz:     $$(find . -name '*_test.go' -not -path './bench/*' | xargs cat | grep -cE '^func Fuzz[A-Z]')"

# bench runs the kernel/operator microbenchmarks (vectorized expression
# kernels, filter selectivity sweep, hash aggregation — string keys
# plain and in dictionary form among it —, sort/top-N, and
# Laghos's and Q1's whole leaf pipelines over resident pages), the
# zone-map pruning selectivity sweep, the hot-page cache comparison, the
# tracing-overhead comparison, the mixed-traffic latency profile, the
# join bloom-pushdown sweep, the ingest-throughput sweep and the write
# path's steps (one commit's rows,
# the same batch as a page, one 16-object compaction, the compaction's
# cluster sort over three key kinds, and the writer encoding 16 whole
# row groups on every core; allocs/op included), the rpc transport (a
# unary call, and 64 × 16 KiB chunks over one stream, direct and through a
# relay hop), and prints
# `go test -bench` output: numbers to read while
# working on one layer, archived nowhere. The repo's benchmark
# — calibrated, end to end and per layer, gated by BENCHMARK.json — is
# bench/ (`go run -C bench .`); the end-to-end paper sweeps live under
# bench-paper.
bench:
	$(GO) test -bench=. -benchmem -run '^$$' ./internal/exec/
	$(GO) test -bench='PruneSweep|HotCache' -benchmem -run '^$$' ./internal/ocsserver/
	$(GO) test -bench='TracingOverhead|MixedTraffic|JoinBloomSweep|IngestThroughput' -benchmem -run '^$$' ./internal/harness/
	$(GO) test -bench='BuilderAppendRows|BuilderAppendPage|CompactMerge|ClusterOrder' -benchmem -run '^$$' ./internal/ingest/
	$(GO) test -bench='WritePage' -benchmem -run '^$$' ./internal/parquetlite/
	$(GO) test -bench='UnaryCall|StreamChunks' -benchmem -run '^$$' ./internal/rpc/

# bench-paper regenerates the paper-evaluation benchmarks (full in-process
# topology per iteration; slow).
bench-paper:
	$(GO) test -bench=. -benchmem ./...

# faults runs the failure-injection matrix twice under the race detector:
# killed connections, black-holed links, dead compute units, cancelled
# and deadline-bounded queries, cache-invalidation races, the
# mixed-traffic load scenarios (starvation, slow readers, killed clients
# mid-stream), the connector's fallback and its mid-stream resume on the
# local replay, plain and with a pushed bloom filter, and the write-path
# scenarios (killed ingest,
# compaction racing queries, snapshot-pinned scans) (DESIGN.md §5b, §7,
# §10).
faults:
	$(GO) test -race -count=2 -run 'Fault|Kill|Cancel|Retry|Fallback|Deadline|Blackhole|ComputeUnit|CacheInvalidation|Starvation|SlowClient|Backpressure|Overloaded|Ingest|Compact|Snapshot' \
		./internal/rpc/... ./internal/retry/... ./internal/faultnet/... \
		./internal/ocsserver/... ./internal/harness/... ./internal/engine/... \
		./internal/connector/... ./internal/ingest/... ./internal/metastore/...

# faults-ingest is the CI ingest lane: only the write-path scenarios —
# streaming ingestion (killed connections, dropped batches), background
# compaction (mid-run kills, GC-vs-pin races) and snapshot consistency —
# twice under the race detector.
faults-ingest:
	$(GO) test -race -count=2 -run 'Ingest|Compact|Snapshot' \
		./internal/ingest/... ./internal/metastore/... ./internal/harness/...

# determinism repeats, at one, two and four cores, the tests that hold an
# answer to be a function of the snapshot alone — the same bytes, rows in
# the same order — across runs. The query matrix (internal/harness,
# matrix_test.go) runs one test per family of queries — seeded random
# queries, the paper's queries under each codec, the join shapes, Q3 and
# aggregates over a join, ORDER BY … LIMIT over keys that tie across
# splits, dictionary-encoded strings and a schema-drift case that must
# fail — in every cell of its configuration axes (catalog, pushdown mode,
# bloom on/off, leaf workers, storage nodes, caches cold and warm), each
# byte for byte against one reference cell. The final stage folds leaf
# output in split order (DESIGN.md §9), so no cell carries a tolerance;
# a failure here is an arrival-order dependence. The same rule holds for
# the write path: the writer encodes whole row groups on GOMAXPROCS
# workers (DESIGN.md §10), and the writer, builder and compaction
# differentials must produce the row-wise reference's bytes at every
# core count.
determinism:
	$(GO) test -cpu 1,2,4 -count=3 -run 'TestQuickPushdownSoundness|TestSoundnessAcrossCodecs|TestJoinDifferentialAcrossConfigurations|TestTopNTieOrderAcrossSplits|TestDictionaryVectorsDifferential|TestSchemaDriftFailsQuery' ./internal/harness/
	$(GO) test -cpu 1,2,4 -count=3 -run 'TestWriterMatchesRowWiseReference|TestBuilderMatchesRowWiseReference|TestCompactMatchesBoxedStableSort' ./internal/parquetlite/ ./internal/ingest/

# fuzz-smoke runs each native fuzz target for ten seconds: the decoders
# of bytes this program did not produce (Snappy blocks and parquetlite
# footers and chunks off disk, rpc frames, protowire messages, Arrow
# batches, object-end chunks and Substrait plans — the bloom filter's
# carrier — off the wire, object-protocol requests from any client, the
# S3 Select request among them, and responses from any server) may reject
# their input but must never panic or size an allocation from a length the
# input cannot back; SQL text from any
# client goes through parse, analyze and both optimizers in every pushdown
# mode, where each step may reject it, none may panic, and a plan that
# comes out keeps the structural invariants; and the comparison kernels
# answer as the test oracle (the row-at-a-time evaluator in
# internal/expr/oracle_test.go) does, in a predicate and in value
# context, on any column, literal or computed operand, operator and
# selection; and the key table's direct mode assigns and finds the ids its
# hash mode does, on any stream of integer-led keys, within its
# allocation bound.
# `go test -fuzz` takes one target and one package per run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzSnappyDecode$$' -fuzztime 10s ./internal/compress/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBatch$$' -fuzztime 10s ./internal/arrowlite/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRef$$' -fuzztime 10s ./internal/objstore/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeDataStats$$' -fuzztime 10s ./internal/objstore/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeKeys$$' -fuzztime 10s ./internal/objstore/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSelect$$' -fuzztime 10s ./internal/objstore/
	$(GO) test -run '^$$' -fuzz '^FuzzNewReader$$' -fuzztime 10s ./internal/parquetlite/
	$(GO) test -run '^$$' -fuzz '^FuzzReadColumn$$' -fuzztime 10s ./internal/parquetlite/
	$(GO) test -run '^$$' -fuzz '^FuzzPlanPipeline$$' -fuzztime 10s ./internal/optimizer/
	$(GO) test -run '^$$' -fuzz '^FuzzSubstraitUnmarshal$$' -fuzztime 10s ./internal/optimizer/
	$(GO) test -run '^$$' -fuzz '^FuzzDecoder$$' -fuzztime 10s ./internal/protowire/
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s ./internal/rpc/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeObjectEnd$$' -fuzztime 10s ./internal/ocsserver/
	$(GO) test -run '^$$' -fuzz '^FuzzSelectionKernels$$' -fuzztime 10s ./internal/expr/
	$(GO) test -run '^$$' -fuzz '^FuzzKeyTableModes$$' -fuzztime 10s ./internal/exec/

# gates is the one list of the static guards (telemetry manifest, the one
# storage read, join hot path, ingest single writer):
# check and ci-fast both depend on it, so adding or retiring a gate is one
# edit.
gates: vet-telemetry vet-scan vet-join vet-ingest

# vet-telemetry keeps the metric-name manifest honest: every Metric* const
# declared in internal/telemetry/names.go must have a registration site in
# non-test code outside that package. Instrumentation cannot be deleted —
# and dead names cannot accumulate — without this gate noticing.
vet-telemetry:
	@missing=""; \
	for name in $$(grep -oE 'Metric[A-Za-z0-9]+' internal/telemetry/names.go | sort -u); do \
		if ! grep -rqE "telemetry\.$$name\b" --include='*.go' --exclude='*_test.go' --exclude-dir=telemetry internal cmd; then \
			missing="$$missing $$name"; \
		fi; \
	done; \
	if [ -n "$$missing" ]; then \
		echo "vet-telemetry: metric names with no registration site outside internal/telemetry:$$missing"; \
		exit 1; \
	fi
	@echo "vet-telemetry: every manifest metric has a registration site"

# vet-scan holds every storage read to one package (DESIGN.md §4c): the
# only module packages whose non-test code imports internal/parquetlite
# are scan (the read: footer and page caches, schema check, pruning,
# I/O), ingest (the writer; the compactor reads its sources through
# scan.Open) and workload (datagen). Every other package opens objects
# with scan.Open, whose Object exposes only the row groups pruning kept
# and opens the footer through the footer cache.
vet-scan:
	@importers=$$($(GO) list -f '{{range .Imports}}{{if eq . "prestocs/internal/parquetlite"}}{{$$.ImportPath}}{{"\n"}}{{end}}{{end}}' ./...) || exit 1; \
	bad=$$(echo "$$importers" | grep -vxE 'prestocs/internal/(scan|ingest|workload)|'); \
	if [ -n "$$bad" ]; then \
		echo "vet-scan: packages outside scan, ingest and workload import internal/parquetlite"; \
		echo "(read objects through scan.Open):"; \
		echo "$$bad"; \
		exit 1; \
	fi
	@echo "vet-scan: every storage read goes through internal/scan"

# vet-join guards the vectorized join hot path: the hash-join probe, the
# engine-side bloom probe and the bloom membership kernels must stay
# columnar — gather-list construction and vector batch tests, never a
# per-row Value/Row accessor loop. A call site that genuinely needs a
# scalar accessor takes an explicit `// vet-join:allow <reason>`.
vet-join:
	@bad=$$(grep -n '\.Row(\|\.Value(' internal/exec/join.go internal/exec/bloomprobe.go internal/bloom/*.go 2>/dev/null \
		| grep -v '_test.go' | grep -v 'vet-join:allow'); \
	if [ -n "$$bad" ]; then \
		echo "vet-join: per-row accessor loop in the join/bloom hot path"; \
		echo "(build gather lists over vectors or annotate // vet-join:allow <reason>):"; \
		echo "$$bad"; \
		exit 1; \
	fi
	@echo "vet-join: join probe and bloom kernels are columnar"

# vet-ingest guards the single-writer invariant (DESIGN.md §10): catalog
# entries are assembled only by the ingest package, so every registered
# table carries fresh per-object zone maps and per-object sizes. A
# metastore.Table literal anywhere else in non-test code is an unversioned
# registration path and fails the gate. `// vet-ingest:allow <reason>`
# annotates the rare legitimate exception.
vet-ingest:
	@bad=$$(grep -rn 'metastore\.Table{' --include='*.go' --exclude='*_test.go' \
		internal cmd 2>/dev/null \
		| grep -v '^internal/ingest/' | grep -v '^internal/metastore/' | grep -v 'vet-ingest:allow'); \
	if [ -n "$$bad" ]; then \
		echo "vet-ingest: metastore.Table assembled outside the ingest package (route through"; \
		echo "ingest.AssembleTable or annotate // vet-ingest:allow <reason>):"; \
		echo "$$bad"; \
		exit 1; \
	fi
	@echo "vet-ingest: all catalog registrations flow through the ingest package"

# bench-build compiles and tests the repo's benchmark, which is a Go
# module of its own (bench/, see BENCHMARK.json) that imports internal/
# packages: root `go build ./... && go test ./...` never sees it, so an
# API rename that breaks it would otherwise surface only in the benchmark
# pipeline.
bench-build:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# check is the verification gate: vet (plus the grep guards, see gates),
# the benchmark module's
# build, and the full suite under the race detector (the streaming RPC and
# parallel scanner are concurrency-heavy), then the fault-injection matrix,
# ten seconds of each fuzz target and the determinism lane.
check: gates
	$(GO) vet ./...
	$(MAKE) bench-build
	$(GO) test -race ./...
	$(MAKE) faults
	$(MAKE) fuzz-smoke
	$(MAKE) determinism

# ci-fast is the quick CI lane: formatting, compilation, vet and every
# static gate — everything that fails in seconds. The GitHub workflow's
# first job calls this exact target so CI and local runs cannot drift.
ci-fast: gates
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: these files need formatting:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi
	@echo "gofmt: clean"
	$(GO) build ./...
	$(GO) vet ./...

# ci-race is the CI race lane: the full suite under the race detector.
ci-race:
	$(GO) test -race ./...

# ci runs what the GitHub workflow's jobs run, each once: ci-fast
# (formatting, build, vet and the grep gates), ci-race, faults (whose
# scenarios include faults-ingest's, so that lane is not run a second
# time), fuzz-smoke, determinism, bench-build and cover (the coverage
# floor).
ci: ci-fast ci-race faults fuzz-smoke determinism bench-build cover

# cover enforces a combined statement-coverage floor over the packages
# that implement statistics pruning and the write path; see COVER_MIN
# above.
cover:
	$(GO) test -coverprofile=cover.out ./internal/expr/ ./internal/parquetlite/ ./internal/scan/ ./internal/ocsserver/ ./internal/ingest/ ./internal/metastore/
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { gsub("%","",$$3); print $$3 }'); \
	echo "combined coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit (t+0 < min+0) }' || { \
		echo "cover: $$total% is below the $(COVER_MIN)% floor"; exit 1; }
