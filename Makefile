# Local targets mirror the CI pipeline (.github/workflows/ci.yml)
# step for step, so a green `make ci` means a green CI run.

GO ?= go

.PHONY: build test bench bench-e2e-smoke bench-json bench-gate bench-baseline fuzz-smoke mem-smoke terasort-scale repro-quick figures-golden fmt vet lint hetlint loc race docs ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# bench-e2e-smoke mirrors the CI lane of the same name: bench/ is a
# module of its own, so `go build ./... && go test ./...` at the root
# never compiles it — this does, then runs all six workloads at smoke
# size. A job whose output fails verification exits non-zero.
bench-e2e-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	bash bench/run.sh -quick

# bench-json mirrors the CI benchmark lane: every benchmark once,
# parsed into the machine-readable perf artifact. The name is derived
# from HEAD like the CI lane derives it from the PR number — no stale
# hardcoded artifact names. The intermediate file (not a pipe) keeps a
# benchmark failure fatal.
BENCH_ARTIFACT ?= BENCH_$(shell git rev-parse --short=12 HEAD 2>/dev/null || echo LOCAL)
bench-json:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./... > bench.out
	$(GO) run ./cmd/benchjson -o $(BENCH_ARTIFACT).json < bench.out
	@rm -f bench.out
	@echo "wrote $(BENCH_ARTIFACT).json"

# bench-gate mirrors the CI regression gate: rerun the rpcnet wire
# benchmarks plus the 100 MB range-partitioned terasort (MB/s and
# peak_heap_MB) and fail on any >15% direction-aware regression
# against the committed baseline.
bench-gate:
	$(GO) test -bench=. -benchtime=0.3s -count=5 -run='^$$' ./internal/rpcnet > gate.out
	$(GO) test -bench='TerasortPeakMemory/net/100MB' -benchtime=1x -count=3 -run='^$$' -timeout 30m ./internal/engine >> gate.out
	$(GO) run ./cmd/benchjson -o BENCH_GATE.json < gate.out
	@rm -f gate.out
	$(GO) run ./cmd/benchdiff -baseline BENCH_BASELINE.json -new BENCH_GATE.json -threshold 0.15
	@rm -f BENCH_GATE.json

# bench-baseline refreshes the committed gate baseline — run it (and
# commit the result) when a PR legitimately moves the rpcnet or
# terasort numbers.
bench-baseline:
	$(GO) test -bench=. -benchtime=0.3s -count=5 -run='^$$' ./internal/rpcnet > gate.out
	$(GO) test -bench='TerasortPeakMemory/net/100MB' -benchtime=1x -count=3 -run='^$$' -timeout 30m ./internal/engine >> gate.out
	$(GO) run ./cmd/benchjson -o BENCH_BASELINE.json < gate.out
	@rm -f gate.out
	@echo "wrote BENCH_BASELINE.json"

# fuzz-smoke mirrors the CI fuzz lane: short coverage-led mutation
# over the rpcnet wire decoders and the snap codec.
fuzz-smoke:
	$(GO) test ./internal/rpcnet -run='^$$' -fuzz FuzzReadFrame -fuzztime 10s
	$(GO) test ./internal/rpcnet -run='^$$' -fuzz FuzzReadHello -fuzztime 5s
	$(GO) test ./internal/rpcnet -run='^$$' -fuzz FuzzServeConn -fuzztime 10s
	$(GO) test ./internal/spill -run='^$$' -fuzz FuzzSnapRoundTrip -fuzztime 10s
	$(GO) test ./internal/spill -run='^$$' -fuzz FuzzSnapDecode -fuzztime 10s

# mem-smoke mirrors the CI bounded-memory lane: above-watermark
# synthetic datasets streamed through the live and net backends under
# a hard runtime memory limit, including the range-partitioned
# terasort smoke (the -run prefix matches both). The 1 GB scale gate
# (TestTerasortScaleFlatHeap) is opt-in: make terasort-scale.
mem-smoke:
	GOMEMLIMIT=256MiB $(GO) test -v -run TestBoundedMemoryStreaming ./internal/engine/

# terasort-scale mirrors the CI at-scale gate: a full 1 GB net
# terasort whose peak live heap must stay within 1.5x of the 100 MB
# run's. Takes a few minutes.
terasort-scale:
	GOMEMLIMIT=768MiB HETMR_TERASORT_SCALE=1 $(GO) test -v -timeout 30m -run TestTerasortScaleFlatHeap ./internal/engine/

repro-quick:
	$(GO) run ./cmd/repro -quick

# figures-golden rewrites the committed figure goldens
# (internal/experiments/testdata/fig{4,5,7,8}.tsv) from the current
# model — run it, and commit the diff, only when a PR means to move the
# calibration; TestFiguresGolden fails on any other drift.
figures-golden:
	$(GO) test ./internal/experiments -run TestFiguresGolden -update

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# lint mirrors the CI lint lane; staticcheck is skipped gracefully
# when not installed (CI installs honnef.co/go/tools pinned).
lint: vet hetlint
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# hetlint runs the project-invariant analyzer suite (lockheldcall,
# gobreg, configdrop, mustclose) over the whole module. It mirrors the
# CI lint-custom lane and needs nothing beyond the Go toolchain.
hetlint:
	$(GO) run ./cmd/hetlint ./...

# loc prints the non-test Go line count outside bench/ — the figure
# ROADMAP item 4 asks every PR to record in CHANGES.md. The CI lint
# lane prints it too.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l

# docs mirrors the CI docs lane: godoc coverage over the core
# packages plus the ARCHITECTURE.md link check.
docs:
	$(GO) run ./cmd/docscheck

ci: fmt lint docs build race mem-smoke repro-quick bench bench-e2e-smoke bench-gate
