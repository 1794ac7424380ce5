# Local targets mirror the CI pipeline (.github/workflows/ci.yml)
# step for step, so a green `make ci` means a green CI run.

GO ?= go

.PHONY: build test bench bench-e2e-smoke bench-compare fuzz-smoke examples-smoke mem-smoke terasort-scale repro-quick figures-golden fmt vet lint hetlint loc loc-gate race docs ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs the few go-test micro-benchmarks bench/ has no probe for
# once each: a does-it-still-run smoke, not a measurement.
bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# bench-e2e-smoke mirrors the CI lane of the same name: bench/ is a
# module of its own, so `go build ./... && go test ./...` at the root
# never compiles it — this does, then runs all six workloads at smoke
# size. A job whose output fails verification exits non-zero.
bench-e2e-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	bash bench/run.sh -quick

# bench-compare is the performance gate: build BASE's tree and this one
# from their own checkouts, run each one's own bench/run.sh five times
# per workload (end-to-end pass only), and compare the two result files
# at BENCHMARK.json's bounds. The exit status is -compare's: 1 only on
# a "worse" row. No number is committed — one recorded on another
# machine says nothing about this one — so both sides are measured here,
# back to back. All of BASE's runs come before all of this tree's (about
# 7 minutes a side), so a machine that changes pace between the two
# blocks reads as a tight "worse" or "better" row: re-run a red gate on
# a shared runner before believing it. Alternating the sides needs
# -compare to take per-run result files, which waits for the PR that may
# edit bench/.
BASE ?= $(shell git merge-base HEAD origin/main 2>/dev/null || git rev-parse HEAD~1)
CMP := $(CURDIR)/.bench_build/cmp
bench-compare:
	rm -rf $(CMP) && mkdir -p $(CMP)/src
	git archive $(BASE) | tar -x -C $(CMP)/src
	bash $(CMP)/src/bench/run.sh -runs 5 -trace 0 -out $(CMP)/base
	bash bench/run.sh -runs 5 -trace 0 -out $(CMP)/head
	bash bench/run.sh -compare $(CMP)/base/result.json $(CMP)/head/result.json

# fuzz-smoke mirrors the CI fuzz lane: short coverage-led mutation
# over the rpcnet wire decoders, the primed gob decoder (checked
# against a fresh gob.Decoder), the radix sort (checked against the
# stable comparison sort it replaced), the loser-tree merge (both entry
# points checked against the scan merge it replaced), the word-count
# table (checked against the map-based counter it replaced), the
# SPE-offloaded word count (checked against the host kernel) and the
# spill store (random Put/Delete/Get/Open/GetRange sequences checked
# against a map, under each kind of watermark).
fuzz-smoke:
	$(GO) test ./internal/rpcnet -run='^$$' -fuzz FuzzReadFrame -fuzztime 10s
	$(GO) test ./internal/rpcnet -run='^$$' -fuzz FuzzReadHello -fuzztime 5s
	$(GO) test ./internal/rpcnet -run='^$$' -fuzz FuzzServeConn -fuzztime 10s
	$(GO) test ./internal/rpcnet -run='^$$' -fuzz FuzzUnmarshalPrimed -fuzztime 10s
	$(GO) test ./internal/kernels -run='^$$' -fuzz FuzzSortedRecords -fuzztime 10s
	$(GO) test ./internal/kernels -run='^$$' -fuzz FuzzMergeSorted -fuzztime 10s
	$(GO) test ./internal/kernels -run='^$$' -fuzz FuzzWordCount -fuzztime 10s
	$(GO) test ./internal/netmr -run='^$$' -fuzz FuzzAccelWordCount -fuzztime 10s
	$(GO) test ./internal/spill -run='^$$' -fuzz FuzzStore -fuzztime 10s

# examples-smoke runs what tier-1 only compiles: each program under
# examples/ (keyed to a paper section) must exit 0, and so must
# cellbench's -live runs, which drive the node-level Cell framework
# (internal/cellmr) and the SPE runtime end to end and check their
# output; the first that does not fails the target.
examples-smoke:
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		$(GO) run ./$$d >/dev/null || exit 1; \
	done
	$(GO) run ./cmd/cellbench -workload enc -size 1 -live >/dev/null
	$(GO) run ./cmd/cellbench -workload pi -samples 1000000 -live >/dev/null

# mem-smoke mirrors the CI bounded-memory lane: above-watermark
# synthetic datasets streamed through the live and net backends under
# a hard runtime memory limit, plus a 40 MB terasort on both backends
# (net range-partitioned, live merged straight into the sink; the -run
# prefix matches both tests). The 1 GB scale gate
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
lint: vet hetlint loc-gate
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# hetlint runs the project-invariant analyzer suite (lockheldcall,
# configdrop, mustclose) over the whole module. It mirrors the
# CI lint-custom lane and needs nothing beyond the Go toolchain.
hetlint:
	$(GO) run ./cmd/hetlint ./...

# loc prints the non-test Go line count outside bench/ — the figure
# ROADMAP item 4 asks every PR to record in CHANGES.md.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l

# loc-gate is the ratchet on that figure (the CI lint lane runs it): the
# count is the same on every machine, so a PR that grows the tree must
# raise LOC_MAX in its own diff, where review sees it; one that shrinks
# it lowers LOC_MAX to the new `make loc`.
LOC_MAX := 18513
loc-gate:
	@n="$$($(MAKE) -s --no-print-directory loc)"; \
	echo "non-test Go lines outside bench/: $$n (LOC_MAX $(LOC_MAX))"; \
	test "$$n" -le $(LOC_MAX)

# docs mirrors the CI docs lane: godoc coverage over the core
# packages plus the README.md / ARCHITECTURE.md reference check (file
# links, make targets, Test/Benchmark names).
docs:
	$(GO) run ./cmd/docscheck

ci: fmt lint docs build race examples-smoke mem-smoke repro-quick bench bench-e2e-smoke bench-compare
