# Verification entrypoints. `make check` is the tier-1 gate every PR must
# pass (see ROADMAP.md): build, vet, gofmt, the package-comment audit, the
# full test suite, and the same suite under the race detector — the
# parallel train/recommend pipeline is only correct if the equivalence
# tests hold with -race on, and the obs registry must be race-clean under
# concurrent scrape + increment — plus the perfbench harness's own vet and
# tests.
GO ?= go

.PHONY: check build vet fmt-check doc-audit test race perfbench-check bench bench-smoke bench-json bench-compare serve-smoke load-smoke fuzz-smoke

check: build vet fmt-check doc-audit test race perfbench-check fuzz-smoke bench-smoke bench-compare serve-smoke load-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "fmt-check: gofmt needed on:"; echo "$$out"; exit 1; \
	fi
	@echo "fmt-check: gofmt clean"

# doc-audit fails when any package (root, internal/*, cmd/*) lacks a
# `// Package ...` or `// Command ...` doc comment, or when an auricd flag
# or HTTP route is missing from OPERATIONS.md, or when a BENCH_*.json
# baseline names a benchmark no test declares (scripts/doc_audit.sh) — the
# operator- and contributor-facing documentation floor.
doc-audit:
	@missing=0; \
	for dir in . $$(find internal cmd -type d); do \
		files=$$(find "$$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go'); \
		[ -z "$$files" ] && continue; \
		grep -q '^// Package \|^// Command ' $$files || { \
			echo "doc-audit: $$dir has no package doc comment"; missing=1; }; \
	done; \
	[ $$missing -eq 0 ] || exit 1
	@echo "doc-audit: every package documented"
	@./scripts/doc_audit.sh

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# perfbench-check vets and self-tests the end-to-end benchmark harness.
# perfbench/ is its own module (it imports auric/internal/* through a
# replace directive), so the root ./... patterns above never compile it;
# without this target an internal API change could break the benchmark
# with every other check green.
perfbench-check:
	cd perfbench && GOWORK=off GOPROXY=off $(GO) vet ./... && GOWORK=off GOPROXY=off $(GO) test ./...

bench:
	$(GO) test -run=NONE -bench=. -benchmem .

# bench-smoke runs every benchmark once (-short skips the near-paper
# scale) so `make check` catches benchmarks that rot when APIs move,
# without paying for a measurement-grade run.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x -short . ./internal/learn/cf/ ./internal/core/ ./internal/trace/ ./internal/learn/tree/ ./internal/learn/forest/ ./cmd/auricd/

# bench-json runs the hot-path benchmark suites and writes the
# machine-readable results to BENCH_cf.json (dataset + CF),
# BENCH_core.json (engine), BENCH_learn.json (tree/forest fit) and
# BENCH_serve.json (auricd's POST /v1/recommend handler) —
# see scripts/bench_json.sh for knobs.
bench-json:
	./scripts/bench_json.sh

# bench-compare prints a benchstat-style delta between two bench-json
# files (scripts/benchcompare) and is a hard gate: an ns/op regression
# above MAX_REGRESS percent whose mean±spread intervals do not overlap
# fails the build (spread comes from COUNT>1 bench-json runs; wobbles on
# noisy benchmarks overlap and pass). allocs/op is gated the same way at
# MAX_ALLOC_REGRESS — allocation counts are nearly deterministic, so the
# alloc gate sits far tighter than the timing one and catches a hot path
# quietly regrowing garbage. Setting either to 0 makes that metric
# report-only. Explicit form:
#   make bench-compare OLD=old.json NEW=new.json [MAX_REGRESS=PCT] [MAX_ALLOC_REGRESS=PCT]
# Without OLD, any working-tree BENCH_*.json that differs from HEAD is
# gated against its committed version.
MAX_REGRESS ?= 60
MAX_ALLOC_REGRESS ?= 30
bench-compare:
ifdef OLD
	$(GO) run ./scripts/benchcompare -max-regress $(MAX_REGRESS) -max-alloc-regress $(MAX_ALLOC_REGRESS) $(OLD) $(NEW)
else
	@status=0; for f in BENCH_cf.json BENCH_core.json BENCH_learn.json BENCH_serve.json; do \
		if git cat-file -e HEAD:$$f 2>/dev/null && ! git diff --quiet HEAD -- $$f 2>/dev/null; then \
			base=$$(mktemp); git show HEAD:$$f > $$base; \
			$(GO) run ./scripts/benchcompare -max-regress $(MAX_REGRESS) -max-alloc-regress $(MAX_ALLOC_REGRESS) $$base $$f || status=1; \
			rm -f $$base; \
		fi; \
	done; \
	[ $$status -eq 0 ] || { echo "bench-compare: regression gate failed (MAX_REGRESS=$(MAX_REGRESS)%, MAX_ALLOC_REGRESS=$(MAX_ALLOC_REGRESS)%)"; exit 1; }
	@echo "bench-compare: done (ns/op gate $(MAX_REGRESS)%, allocs/op gate $(MAX_ALLOC_REGRESS)% vs committed baselines)"
endif

# serve-smoke boots auricd on a random port, exercises /healthz,
# /metrics, /v1/recommend, /v1/reload (HTTP and SIGHUP), /v1/shards,
# NDJSON batch streaming, /debug/traces and the audit log over real TCP,
# and verifies SIGTERM shuts it down cleanly.
serve-smoke:
	./scripts/serve_smoke.sh

# load-smoke is the standing serving-path performance gate: auricload
# drives a short in-process load with a snapshot reload racing it, fails
# on any request failure or a throughput collapse, and prints the JSON
# p50/p99 report (scripts/load_smoke.sh; EXPERIMENTS.md has measured
# numbers).
load-smoke:
	./scripts/load_smoke.sh

# fuzz-smoke runs six fuzz targets, each over its committed corpus plus a
# short randomized burst — long enough to catch a regression, short enough
# for every `make check`. FuzzSnapshotRead catches a decoder panic
# reintroduced on the snapshot Read path; FuzzIngestEquivalence catches a
# live-ingest delta sequence whose patched models answer differently from
# a fresh load; FuzzJournalReplay catches a journal file that Open accepts
# but that one more append leaves unreplayable (or a panic in Open);
# FuzzRenderJSON catches a recommend response whose bytes differ from
# encoding/json's; FuzzUpdateEquivalence catches an upsert/tombstone
# sequence after which a patched CF model answers differently from a refit
# over its surviving rows; FuzzIngestBody catches a POST /v1/carriers body
# that panics the handler, answers a status outside 200/400/404/409/413, or
# moves the serving generation or the journal other than by exactly one
# step on a 200.
# Longer sessions: go test -fuzz=<target> <package>
# -fuzzminimizetime=5x keeps input minimization from monopolizing the
# short budget on single-core machines.
fuzz-smoke:
	$(GO) test -run=FuzzSnapshotRead -fuzz=FuzzSnapshotRead -fuzztime=10s -fuzzminimizetime=5x ./internal/snapshot/
	$(GO) test -run=FuzzIngestEquivalence -fuzz=FuzzIngestEquivalence -fuzztime=10s -fuzzminimizetime=5x ./internal/core/
	$(GO) test -run=FuzzJournalReplay -fuzz=FuzzJournalReplay -fuzztime=10s -fuzzminimizetime=5x ./internal/journal/
	$(GO) test -run=FuzzRenderJSON -fuzz=FuzzRenderJSON -fuzztime=10s -fuzzminimizetime=5x ./cmd/auricd/
	$(GO) test -run=FuzzUpdateEquivalence -fuzz=FuzzUpdateEquivalence -fuzztime=10s -fuzzminimizetime=5x ./internal/learn/cf/
	$(GO) test -run=FuzzIngestBody -fuzz=FuzzIngestBody -fuzztime=10s -fuzzminimizetime=5x ./cmd/auricd/
