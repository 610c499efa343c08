GO ?= go

.PHONY: check fmt vet lint analyze test race fuzz bench bench-smoke bench-json bench-diff

# check is the local CI gate: formatting, vet, lint, the repo analyzer
# suite, the full suite under -race, and one pass of the serving and
# cold-kernel benchmarks as a smoke test.  CI runs the same targets
# split across parallel jobs (see .github/workflows/ci.yml).
check: fmt vet lint analyze race bench-smoke

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# lint runs staticcheck (or golangci-lint) when installed; the tools
# are not vendored, so a machine without them only loses the extra
# checks — go vet still gates.  CI always installs staticcheck.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run; \
	else \
		echo "lint: staticcheck/golangci-lint not installed; skipping (go vet still runs)"; \
	fi

# analyze runs netmarkvet, the repo's own analyzer suite: lockcheck
# (guarded fields, lock order, hot locks), fsyncrename, vfsonly and
# cowview prove the concurrency and crash-safety invariants, and the
# dataflow tier's errflow, ackorder and snapcover prove durability
# error routing, WAL-before-ack ordering and snapshot field coverage —
# all documented in CONTRIBUTING.md.  Zero-alloc hot paths and cache
# generation bumps are pinned by tests, not analyzers.  It is
# stdlib-only, so unlike lint it always runs.  Findings are gated
# against the committed ANALYZE_BASELINE.json: a known finding being
# worked off stays visible without failing the build, but any *new*
# finding fails.  The baseline is empty and should stay that way.
# govulncheck and the extra x/tools vet passes (nilness, shadow) join
# in when installed; CI always installs them.
analyze:
	$(GO) run ./cmd/netmarkvet -baseline ANALYZE_BASELINE.json
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "analyze: govulncheck not installed; skipping"; \
	fi
	@if command -v nilness >/dev/null 2>&1; then \
		$(GO) vet -vettool=$$(command -v nilness) ./...; \
	else \
		echo "analyze: nilness not installed; skipping"; \
	fi
	@if command -v shadow >/dev/null 2>&1; then \
		$(GO) vet -vettool=$$(command -v shadow) ./...; \
	else \
		echo "analyze: shadow not installed; skipping"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz runs each native fuzz target for $(FUZZTIME) beyond its seeds —
# 10s in CI, 5m nightly: hostile bytes against the record decoder under
# the store's three schemas (XML, DOC and TAG, arbitrary tag codes
# included) and XML's coded with a symbol table, read from any RowID,
# the string codec (arbitrary symbol tables and codes, and the trainer's
# round trip), the xmlstore.nmsnap payload decoder and whole snapshot
# files through the engine's inflating read, arbitrary catalog
# bytes opened beside a valid data file and log, hostile log frames
# after a valid header opened and replayed, the splitters recovery
# reads run records with, a delete-run record of
# arbitrary payload opened end to end, the page codec — arbitrary bytes
# decoded as a data file's block, and pages encoded and back, with no
# dictionary and against a store-trained one — the slotted page — arbitrary page bytes read,
# and arbitrary insert/delete/compact sequences checked against the
# layout — the phrase matcher against tokenize-then-compare, arbitrary
# XML/HTML through store and Reconstruct (and streamed as GET /doc writes
# it) and through the serializer's parse-write fixed point, and the xdb
# query parser.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run xxx -fuzz FuzzDecodeRow -fuzztime $(FUZZTIME) ./internal/xmlstore
	$(GO) test -run xxx -fuzz FuzzApplySnapshot -fuzztime $(FUZZTIME) ./internal/xmlstore
	$(GO) test -run xxx -fuzz FuzzReadSnapshotFile -fuzztime $(FUZZTIME) ./internal/xmlstore
	$(GO) test -run xxx -fuzz FuzzStoreReconstruct -fuzztime $(FUZZTIME) ./internal/xmlstore
	$(GO) test -run xxx -fuzz FuzzSerialize -fuzztime $(FUZZTIME) ./internal/sgml
	$(GO) test -run xxx -fuzz FuzzRunRecord -fuzztime $(FUZZTIME) ./internal/ordbms
	$(GO) test -run xxx -fuzz FuzzDeleteRunRecord -fuzztime $(FUZZTIME) ./internal/ordbms
	$(GO) test -run xxx -fuzz '^FuzzPage$$' -fuzztime $(FUZZTIME) ./internal/ordbms
	$(GO) test -run xxx -fuzz FuzzPageCodec -fuzztime $(FUZZTIME) ./internal/ordbms
	$(GO) test -run xxx -fuzz FuzzSymbolCodec -fuzztime $(FUZZTIME) ./internal/ordbms
	$(GO) test -run xxx -fuzz FuzzOpenCatalog -fuzztime $(FUZZTIME) ./internal/ordbms
	$(GO) test -run xxx -fuzz FuzzWALLog -fuzztime $(FUZZTIME) ./internal/ordbms
	$(GO) test -run xxx -fuzz FuzzPhraseMatch -fuzztime $(FUZZTIME) ./internal/textindex
	$(GO) test -run xxx -fuzz FuzzParseQuery -fuzztime $(FUZZTIME) ./internal/xdb

bench:
	$(GO) test -bench . -benchmem ./...

# bench-smoke runs each serving / cold-kernel / reopen / delete / ingest
# / reconstruct / document-write benchmark case once: it proves the
# serving path, both caches, the write-heavy mixed workload, the
# accelerated query kernel, the snapshot reopen path, the document
# delete, the batch ingest pipeline, the cold-store Reconstruct and the
# streamed document write still execute, without the cost of a timed
# benchmark run.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkServeParallel|BenchmarkMixedWriteHeavy|BenchmarkColdContentSearch|BenchmarkReopen|BenchmarkDeleteDocument|BenchmarkIngestParallel|BenchmarkReconstruct|BenchmarkWriteDocument' -benchtime 1x .

# bench-json runs the perf-trajectory benchmark suite and records the
# results (parsed numbers + benchstat-parseable raw lines) in
# $(BENCH_OUT) with cmd/benchdiff -record, so regressions are diffable
# across PRs.  -cpu 2 pins GOMAXPROCS to that of the committed
# recordings: the parallel ingest, group-commit and RunParallel serving
# benchmarks split their work by it.  Override the output file per PR:
# make bench-json BENCH_OUT=BENCH_PR54.json
BENCH_OUT ?= BENCH_PR54.json
bench-json:
	$(GO) test -run xxx -bench 'BenchmarkColdContentSearch|BenchmarkMixedWriteHeavy|BenchmarkServeParallel|BenchmarkFig6|BenchmarkReopen|BenchmarkIngestParallel|BenchmarkDeleteDocument|BenchmarkReconstruct|BenchmarkWriteDocument' -benchmem -benchtime 2s -cpu 2 . \
		| $(GO) run ./cmd/benchdiff -record > $(BENCH_OUT)
	@echo wrote $(BENCH_OUT)

# bench-diff gates $(BENCH_OUT) against the newest committed
# BENCH_PR*.json — excluding $(BENCH_OUT) itself, so recording this
# PR's own baseline file never degrades into a self-comparison.  On any
# serving/cold-kernel/reopen/ingest/reconstruct benchmark, 2x ns/op, +5 %
# allocs/op, +10 % B/op or +1 % in a deterministic metric fails (a
# benchmark whose allocs/op spread run to run keeps 2x on allocs/op and
# B/op; see cmd/benchdiff).  This is
# what the CI bench-regression job runs (with BENCH_OUT=BENCH_CI.json).
bench-diff:
	@base=$$(ls BENCH_PR*.json | grep -vx '$(BENCH_OUT)' | sort -V | tail -1); \
	if [ -z "$$base" ]; then echo "bench-diff: no committed baseline"; exit 1; fi; \
	echo "baseline: $$base"; \
	$(GO) run ./cmd/benchdiff -old $$base -new $(BENCH_OUT) -threshold 2
