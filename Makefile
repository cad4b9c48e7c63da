GO ?= go
# COVER_MIN is the floor for `make cover` over the pruning-critical and
# write-path packages (expr, parquetlite, ocsserver, ingest, metastore).
# Measured combined coverage is ~81%; the floor leaves headroom for small
# refactors but fails the gate if tests are deleted wholesale.
COVER_MIN ?= 80.0

.PHONY: build test bench bench-build bench-paper faults faults-ingest fuzz-smoke determinism check \
	gates vet-telemetry vet-pruning vet-cache vet-concurrency vet-join vet-ingest ci-fast ci-race ci cover

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench runs the kernel/operator microbenchmarks (vectorized expression
# kernels, filter selectivity sweep, hash aggregation, sort/top-N, and
# Laghos's and Q1's whole leaf pipelines over resident pages), the
# zone-map pruning selectivity sweep, the hot-page cache comparison, the
# tracing-overhead comparison, the mixed-traffic latency profile, the
# adaptive-pushdown sweep, the join bloom-pushdown sweep, the
# ingest-throughput sweep and the write path's steps (one commit's rows,
# the same batch as a page, one 16-object compaction, the compaction's
# cluster sort over three key kinds, and the writer encoding 16 whole
# row groups on every core; allocs/op included), and prints
# `go test -bench` output: numbers to read while
# working on one layer, archived nowhere. The repo's benchmark
# — calibrated, end to end and per layer, gated by BENCHMARK.json — is
# bench/ (`go run -C bench .`); the end-to-end paper sweeps live under
# bench-paper.
bench:
	$(GO) test -bench=. -benchmem -run '^$$' ./internal/exec/
	$(GO) test -bench='PruneSweep|HotCache' -benchmem -run '^$$' ./internal/ocsserver/
	$(GO) test -bench='TracingOverhead|MixedTraffic|AdaptiveSweep|JoinBloomSweep|IngestThroughput' -benchmem -run '^$$' ./internal/harness/
	$(GO) test -bench='BuilderAppendRows|BuilderAppendPage|CompactMerge|ClusterOrder' -benchmem -run '^$$' ./internal/ingest/
	$(GO) test -bench='WritePage' -benchmem -run '^$$' ./internal/parquetlite/

# bench-paper regenerates the paper-evaluation benchmarks (full in-process
# topology per iteration; slow).
bench-paper:
	$(GO) test -bench=. -benchmem ./...

# faults runs the failure-injection matrix twice under the race detector:
# killed connections, black-holed links, dead compute units, cancelled
# and deadline-bounded queries, cache-invalidation races, the
# mixed-traffic load scenarios (starvation, slow readers, killed clients
# mid-stream), and the write-path scenarios (killed ingest, compaction
# racing queries, snapshot-pinned scans) (DESIGN.md §5b, §7, §10).
faults:
	$(GO) test -race -count=2 -run 'Fault|Kill|Cancel|Retry|Fallback|Deadline|Blackhole|ComputeUnit|CacheInvalidation|Starvation|SlowClient|Backpressure|Overloaded|Flip|Ingest|Compact|Snapshot' \
		./internal/rpc/... ./internal/retry/... ./internal/faultnet/... \
		./internal/ocsserver/... ./internal/harness/... ./internal/engine/... \
		./internal/ingest/... ./internal/metastore/...

# faults-ingest is the CI ingest lane: only the write-path scenarios —
# streaming ingestion (killed connections, dropped batches), background
# compaction (mid-run kills, GC-vs-pin races) and snapshot consistency —
# twice under the race detector.
faults-ingest:
	$(GO) test -race -count=2 -run 'Ingest|Compact|Snapshot' \
		./internal/ingest/... ./internal/metastore/... ./internal/harness/...

# determinism repeats, at one, two and four cores, the tests that hold an
# answer to be a function of the snapshot alone — the same bytes, rows in
# the same order — across runs, worker counts, pushdown modes, bloom
# on/off, probe placement and catalog: random queries against no
# pushdown, every join shape against a row-at-a-time reference, and
# ORDER BY … LIMIT over keys that tie across splits. The final stage folds
# leaf output in split order (DESIGN.md §9), so none of them carries a
# tolerance; a failure here is an arrival-order dependence. The same rule
# holds for the write path: the writer encodes whole row groups on
# GOMAXPROCS workers (DESIGN.md §10), and the writer, builder and
# compaction differentials must produce the row-wise reference's bytes at
# every core count.
determinism:
	$(GO) test -cpu 1,2,4 -count=3 -run 'TestQuickPushdownSoundness|TestJoinDifferentialAcrossConfigurations|TestTopNTieOrderAcrossSplits' ./internal/harness/
	$(GO) test -cpu 1,2,4 -count=3 -run 'TestWriterMatchesRowWiseReference|TestBuilderMatchesRowWiseReference|TestCompactMatchesBoxedStableSort' ./internal/parquetlite/ ./internal/ingest/

# fuzz-smoke runs each native fuzz target for ten seconds: the decoders
# of bytes this program did not produce (Snappy blocks and parquetlite
# footers and chunks off disk, rpc frames, protowire messages, Arrow
# batches and Substrait plans — the bloom filter's carrier — off the
# wire, object-protocol requests from any client and responses from any
# server) may reject their input but must never panic or size an
# allocation from a length the input cannot back; SQL text from any
# client goes through parse, analyze and both optimizers in every pushdown
# mode, where each step may reject it, none may panic, and a plan that
# comes out keeps the structural invariants; and the selection kernels
# answer as the row-at-a-time evaluator does on any column, literal,
# operator and selection.
# `go test -fuzz` takes one target and one package per run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzSnappyDecode$$' -fuzztime 10s ./internal/compress/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBatch$$' -fuzztime 10s ./internal/arrowlite/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRef$$' -fuzztime 10s ./internal/objstore/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeDataStats$$' -fuzztime 10s ./internal/objstore/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeKeys$$' -fuzztime 10s ./internal/objstore/
	$(GO) test -run '^$$' -fuzz '^FuzzNewReader$$' -fuzztime 10s ./internal/parquetlite/
	$(GO) test -run '^$$' -fuzz '^FuzzReadColumn$$' -fuzztime 10s ./internal/parquetlite/
	$(GO) test -run '^$$' -fuzz '^FuzzPlanPipeline$$' -fuzztime 10s ./internal/optimizer/
	$(GO) test -run '^$$' -fuzz '^FuzzSubstraitUnmarshal$$' -fuzztime 10s ./internal/optimizer/
	$(GO) test -run '^$$' -fuzz '^FuzzDecoder$$' -fuzztime 10s ./internal/protowire/
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s ./internal/rpc/
	$(GO) test -run '^$$' -fuzz '^FuzzSelectionKernels$$' -fuzztime 10s ./internal/expr/

# gates is the one list of the grep guards (telemetry manifest, pruning,
# caching, shared scheduler, join hot path, ingest single writer): check
# and ci-fast both depend on it, so adding or retiring a gate is one edit.
gates: vet-telemetry vet-pruning vet-cache vet-concurrency vet-join vet-ingest

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

# vet-pruning guards the zone-map invariant: scan paths in the storage
# executor and the OCS connector must decode only row groups that
# survived statistics pruning. Any ReadAll/ReadRowGroup call site in
# those packages needs an explicit `// vet-pruning:allow <reason>`
# annotation, reserved for paths that genuinely cannot prune (the
# post-prune keep-list iterations). The no-pushdown whole-object scan is
# engine.ScanWholeObject, outside both packages.
vet-pruning:
	@bad=$$(grep -n 'ReadAll(\|ReadRowGroup(' internal/ocsserver/*.go internal/connector/ocs/*.go 2>/dev/null \
		| grep -v '_test.go' | grep -v 'vet-pruning:allow'); \
	if [ -n "$$bad" ]; then \
		echo "vet-pruning: full row-group decode without a prune justification"; \
		echo "(annotate // vet-pruning:allow <reason> only for paths that cannot prune):"; \
		echo "$$bad"; \
		exit 1; \
	fi
	@echo "vet-pruning: storage scan paths decode only post-prune row groups"

# vet-cache guards the caching tier: per-query hot paths must go through
# the cache package, not straight to the metastore or the footer decoder.
# Direct metastore Get calls in the connectors/engine and direct
# parquetlite.NewReader footer decodes in the storage executor or the OCS
# connector need an explicit `// vet-cache:allow <reason>` annotation,
# reserved for paths that genuinely must bypass the caches (cold utility
# paths; the engine-side whole-object scan, engine.ScanWholeObject, has no
# node cache in reach and lives outside these packages).
vet-cache:
	@bad=$$(grep -n 'meta\.Get(\|metastore\.Get(' internal/connector/ocs/*.go internal/connector/hive/*.go internal/engine/*.go 2>/dev/null \
		| grep -v '_test.go' | grep -v 'vet-cache:allow'); \
	if [ -n "$$bad" ]; then \
		echo "vet-cache: direct metastore lookup on a per-query path (route through cache.TableCache"; \
		echo "or annotate // vet-cache:allow <reason>):"; \
		echo "$$bad"; \
		exit 1; \
	fi
	@bad=$$(grep -n 'parquetlite\.NewReader(' internal/ocsserver/*.go internal/connector/ocs/*.go 2>/dev/null \
		| grep -v '_test.go' | grep -v 'vet-cache:allow'); \
	if [ -n "$$bad" ]; then \
		echo "vet-cache: direct footer decode on a per-query path (route through cache.FooterCache.Open"; \
		echo "or annotate // vet-cache:allow <reason>):"; \
		echo "$$bad"; \
		exit 1; \
	fi
	@echo "vet-cache: per-query metadata and footer lookups go through the cache tier"

# vet-concurrency guards the shared-scheduler invariant (DESIGN.md §7):
# storage-node scan work must flow through the node-wide fair scheduler.
# Constructing a scheduler (the old per-query worker-pool shape) anywhere
# in internal/ocsserver needs an explicit `// vet-concurrency:allow
# <reason>` annotation, reserved for the node-wide instance and the
# in-process entry point; and the scanner itself must stay free of ad-hoc
# goroutines — its parallelism budget belongs to the scheduler.
vet-concurrency:
	@bad=$$(grep -n 'newScanScheduler(' internal/ocsserver/*.go 2>/dev/null \
		| grep -v '_test.go' | grep -v 'scheduler.go' | grep -v 'vet-concurrency:allow'); \
	if [ -n "$$bad" ]; then \
		echo "vet-concurrency: per-query scheduler construction in ocsserver (share the"; \
		echo "node-wide scheduler or annotate // vet-concurrency:allow <reason>):"; \
		echo "$$bad"; \
		exit 1; \
	fi
	@bad=$$(grep -n 'go func' internal/ocsserver/scanner.go 2>/dev/null); \
	if [ -n "$$bad" ]; then \
		echo "vet-concurrency: ad-hoc goroutine in the scanner; submit scanTasks to the"; \
		echo "shared scheduler instead:"; \
		echo "$$bad"; \
		exit 1; \
	fi
	@echo "vet-concurrency: scan work flows through the shared node-wide scheduler"

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
		echo "ingest.AssembleTable/RegisterTable or annotate // vet-ingest:allow <reason>):"; \
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

# ci-fast is the quick CI lane: formatting, compilation, every static
# gate and the determinism lane — everything that fails in seconds. The GitHub workflow calls this
# exact target so CI and local runs cannot drift.
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
	$(MAKE) bench-build
	$(MAKE) determinism

# ci-race is the CI race lane: the full suite under the race detector.
ci-race:
	$(GO) test -race ./...

# ci mirrors the GitHub workflow end to end: fast gates, race suite,
# fault-injection matrix, fuzz smoke.
ci: ci-fast ci-race faults fuzz-smoke

# cover enforces a combined statement-coverage floor over the packages
# that implement statistics pruning and the write path; see COVER_MIN
# above.
cover:
	$(GO) test -coverprofile=cover.out ./internal/expr/ ./internal/parquetlite/ ./internal/ocsserver/ ./internal/ingest/ ./internal/metastore/
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { gsub("%","",$$3); print $$3 }'); \
	echo "combined coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit (t+0 < min+0) }' || { \
		echo "cover: $$total% is below the $(COVER_MIN)% floor"; exit 1; }
