# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race vet lint soak integrity-smoke obs-smoke bench bench-preprocess bench-kernels bench-serving bench-mutation bench-obs fuzz experiments corpus clean

all: build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Required lint: vet plus staticcheck. CI installs staticcheck; locally
# it is skipped with a notice when absent (no network fetch here).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Full suite under the race detector — exercises the concurrent
# OnlinePipeline paths and the work-stealing executor.
race:
	$(GO) test -race ./...

# Chaos soak: the full Server (admission, retry, breaker, persistence)
# under fault injection, cancellations, and concurrent load, raced —
# plus the coalesced multi-tenant soak, which asserts exact per-tenant
# outcome reconciliation under the same pressure.
# PR CI runs the short budget (make soak SOAK_FLAGS=-short); the
# nightly job runs it full-length.
SOAK_FLAGS ?=
soak:
	$(GO) test -race -count=1 -run 'TestServerChaosSoak|TestServerCoalescedMultiTenantSoak' -v $(SOAK_FLAGS) .

# Integrity smoke: the silent-corruption chaos soak (VerifyFraction=1.0,
# all integrity.corrupt.* sites armed in turn) — detection, two-tier
# plan eviction, bit-correct reference fallback while quarantined,
# probation reinstatement, exact ledger reconciliation — plus the
# zero-allocation-overhead pin on the verify path, raced.
# PR CI runs the short budget (make integrity-smoke INTEGRITY_FLAGS=-short,
# two corruption episodes); the nightly job runs all four full-length.
INTEGRITY_FLAGS ?=
integrity-smoke:
	$(GO) test -race -count=1 -run 'TestServerIntegritySoak|TestServerVerifyPathAllocOverhead' -v $(INTEGRITY_FLAGS) .

# Observability smoke: boot the real spmmrr binary in serving mode with
# -obs-listen and -explain, scrape /metrics, /healthz, /readyz,
# /debug/traces, /debug/events, and /debug/explain, fail on a malformed
# exposition or event ledger (the same grammars a scraper applies),
# then SIGTERM and require a clean drain printing the explain document.
obs-smoke:
	$(GO) test -count=1 -run TestCLIServeObservability -v ./cmd/spmmrr/

# One bench per paper table/figure plus the ablations (see DESIGN.md §4).
bench:
	$(GO) test -bench=. -benchmem ./...

# Preprocessing-engine scaling + plan-cache benches, emitted as
# machine-readable JSON (BENCH_preprocess.json). Override the flags for
# a quick smoke run, e.g.:
#   make bench-preprocess BENCH_PREPROCESS_FLAGS="-short -benchtime 1x"
BENCH_PREPROCESS_FLAGS ?= -benchtime 1s
bench-preprocess:
	$(GO) test -run '^$$' -bench 'PreprocessWorkers|TilingWorkers|Cache' -benchmem \
		$(BENCH_PREPROCESS_FLAGS) ./internal/reorder/ ./internal/plancache/ \
		| $(GO) run ./cmd/benchjson -out BENCH_preprocess.json
	@echo "wrote BENCH_preprocess.json"

# SpMM kernel corpus: every execution strategy (rowwise, merge, ELL/HYB,
# ASpT) on the structural families the autotuner discriminates between
# (skewed R-MAT, banded, uniform), emitted as BENCH_kernels.json. Each
# line also reports imb@32, the deterministic row-chunking load-imbalance
# factor (see DESIGN.md §12). Quick smoke run:
#   make bench-kernels BENCH_KERNELS_FLAGS="-short -benchtime 1x"
BENCH_KERNELS_FLAGS ?= -benchtime 1s
bench-kernels:
	$(GO) test -run '^$$' -bench 'KernelCorpus' -benchmem \
		$(BENCH_KERNELS_FLAGS) ./internal/kernels/ \
		| $(GO) run ./cmd/benchjson -out BENCH_kernels.json
	@echo "wrote BENCH_kernels.json"

# Serving-layer throughput: aggregate MB/s of concurrent K=1 SpMM
# requests through the Server, independent vs coalesced into one
# batched pass, at effective K = 1/4/16 — emitted as
# BENCH_serving.json. Quick smoke run:
#   make bench-serving BENCH_SERVING_FLAGS="-short -benchtime 1x"
BENCH_SERVING_FLAGS ?= -benchtime 1s
bench-serving:
	$(GO) test -run '^$$' -bench 'ServingEffectiveK' -benchmem \
		$(BENCH_SERVING_FLAGS) . \
		| $(GO) run ./cmd/benchjson -out BENCH_serving.json
	@echo "wrote BENCH_serving.json"

# Live-mutation cost model: overlay-serve overhead at 0/64/256 mutated
# rows versus the clean fast path, and a value re-skin through the plan
# cache's gather maps versus a cold full re-preprocess at a fresh
# structural epoch — emitted as BENCH_mutation.json. Quick smoke run:
#   make bench-mutation BENCH_MUTATION_FLAGS="-short -benchtime 1x"
BENCH_MUTATION_FLAGS ?= -benchtime 1s
bench-mutation:
	$(GO) test -run '^$$' -bench 'Mutation' -benchmem \
		$(BENCH_MUTATION_FLAGS) . \
		| $(GO) run ./cmd/benchjson -out BENCH_mutation.json
	@echo "wrote BENCH_mutation.json"

# Observability overhead: the decided-pipeline concurrent serving bench
# that the attribution, SLO, and feedback instrumentation sits inside —
# the budget is <=2% versus the pre-instrumentation baseline and zero
# allocations per op (the test suite pins the alloc contract; compare
# ns/op across commits for the time budget). Emitted as BENCH_obs.json.
# Quick smoke run:
#   make bench-obs BENCH_OBS_FLAGS="-short -benchtime 1x"
BENCH_OBS_FLAGS ?= -benchtime 1s
bench-obs:
	$(GO) test -run '^$$' -bench 'OnlineSpMMConcurrent' -benchmem \
		$(BENCH_OBS_FLAGS) . \
		| $(GO) run ./cmd/benchjson -out BENCH_obs.json
	@echo "wrote BENCH_obs.json"

# Short fuzz session over the input parsers and the SpMM kernels'
# bit-exact oracle.
fuzz:
	$(GO) test -fuzz FuzzReadMTX -fuzztime 30s ./internal/sparse/
	$(GO) test -fuzz FuzzReadPlan -fuzztime 30s ./internal/reorder/
	$(GO) test -fuzz FuzzMutationLog -fuzztime 30s .
	$(GO) test -fuzz FuzzSpMMKernels -fuzztime 30s ./internal/kernels/

# Regenerate every evaluation artifact at full scale (~5-10 min).
experiments:
	$(GO) run ./cmd/experiments -v

# Dump the synthetic corpus as Matrix Market files into ./corpus.
corpus:
	mkdir -p corpus && $(GO) run ./cmd/mtxgen -corpus -outdir corpus

clean:
	$(GO) clean ./...
	rm -rf corpus results_csv
