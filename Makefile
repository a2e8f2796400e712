# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race vet lint nofma soak integrity-smoke obs-smoke bench fuzz experiments corpus size clean

all: build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Required lint: vet, gofmt and staticcheck. gofmt reads the tracked
# files only, so build output such as .bench_build/ is not walked. CI
# installs staticcheck; locally it is skipped with a notice when absent
# (no network fetch here).
lint: vet
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: these files need formatting:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Full suite under the race detector — exercises the concurrent
# OnlinePipeline paths and the work-stealing executor.
race:
	$(GO) test -race ./...

# One rounding contract on every GOARCH: the kernels' Go row loops
# write a += float32(v*x), which forbids a fused multiply-add, and the
# amd64 strip primitive multiplies and adds with separate (V)MULPS and
# (V)ADDPS. This target proves that no fused multiply-add was emitted.
# It builds the arm64 kernels test binary (no emulator: the binaries
# are only disassembled) and a GOAMD64=v3 amd64 one, where the compiler
# may use FMA and the AVX2 strip runs, and fails if any strip
# primitive, row loop or test oracle in either holds an FMADD, FMSUB,
# FNMADD or FNMSUB (VFMADD..., VFMSUB..., VFNMADD... or VFNMSUB... on
# amd64), if the strip primitive itself ($(NOFMA_PRIM)) is missing from
# the disassembly, or if it finds too few functions to be the ones it
# names. go tool objdump cannot decode VEX instructions, so the amd64
# binary is read with binutils objdump.
NOFMA_PRIM = addRows
NOFMA_FUNCS = kernels\.($(NOFMA_PRIM)|spmm|run|sddmmRow|SpMMRow|oracle|naive)
NOFMA_AWK = \
	/^TEXT / || / <.*>:$$/ { keep = $$0 ~ /$(NOFMA_FUNCS)/; n += keep; prim += $$0 ~ /kernels\.$(NOFMA_PRIM)[^A-Za-z0-9_]/; fn = $$2; next } \
	keep && toupper($$0) ~ /FN?M(ADD|SUB)/ { print fn ": " $$0; bad++ } \
	END { if (!prim) { print "nofma: " bin ": the strip primitive $(NOFMA_PRIM) is not in the disassembly"; exit 1 } \
	      if (n < 10) { print "nofma: " bin ": disassembled only " n " kernel functions"; exit 1 } \
	      if (bad) { print "nofma: " bin ": " bad " fused multiply-add(s) in the kernels"; exit 1 } \
	      print "nofma: " bin ": no fused multiply-add in " n " kernel functions" }
nofma:
	GOARCH=arm64 $(GO) test -c -o kernels_arm64.test ./internal/kernels
	$(GO) tool objdump -s '$(NOFMA_FUNCS)' kernels_arm64.test | awk -v bin=kernels_arm64.test '$(NOFMA_AWK)'
	GOARCH=amd64 GOAMD64=v3 $(GO) test -c -o kernels_amd64v3.test ./internal/kernels
	objdump -d --no-show-raw-insn kernels_amd64v3.test | awk -v bin=kernels_amd64v3.test '$(NOFMA_AWK)'
	rm -f kernels_arm64.test kernels_amd64v3.test

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

# Lines of Go, the measure the size targets in ROADMAP.md use: non-test
# files of the root package, of internal/ and of cmd/, then every test
# file of the module (perfbench is a module of its own and not counted).
size:
	@printf 'root      %6d\n' $$(cat $$(ls *.go | grep -v '_test\.go$$') | wc -l)
	@printf 'internal  %6d\n' $$(find internal -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
	@printf 'cmd       %6d\n' $$(find cmd -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
	@printf 'tests     %6d\n' $$(find . \( -path ./perfbench -o -path './.*' \) -prune -o -name '*_test.go' -print | xargs cat | wc -l)

clean:
	$(GO) clean ./...
	rm -rf corpus results_csv
