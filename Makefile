# Local targets mirror .github/workflows/ci.yml one-to-one so `make ci`
# reproduces what the workflow runs, bench-gate aside (see `ci` below).

GO ?= go
BENCH_COUNT ?= 6
BENCH_PATTERN ?= BenchmarkParallelReliability|BenchmarkEstimateMany|BenchmarkEstimateEdges|BenchmarkCSRvsLegacy|BenchmarkCandidateEval|BenchmarkVectorMC|BenchmarkAnytimeEstimate|BenchmarkApply|BenchmarkTopL|BenchmarkReseed|BenchmarkSolveWorkers|BenchmarkServedSolve|BenchmarkServedSolveStream

.PHONY: build test race bench bench-smoke bench-baseline bench-compare bench-gate fuzz-smoke smoke-relmaxd perfbench-check cover lint fmt ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the concurrency-bearing packages: parallel sampler, solvers,
# the path search (its searchers are pooled across callers), the anytime
# controller and candidate elimination (both fan out through the sharded
# ParallelSampler), the graph snapshots (concurrent WithEdges views share
# their base's rows copy-on-write), the root package (Engine's
# concurrent-use contract, including the durability tests), the
# persistence layer, the replication subsystem and the HTTP server.
race:
	$(GO) test -race . ./internal/sampling/... ./internal/core/... ./internal/paths ./internal/anytime ./internal/candidates ./internal/ugraph ./internal/store ./internal/replication ./cmd/relmaxd

# Full benchmark run with stable settings for recording numbers.
bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...

# One iteration of every benchmark: catches bench-only compile/runtime rot
# without burning CI minutes.
bench-smoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# Record the perf baseline before a change: run the tracked benchmarks
# BENCH_COUNT times into bench-baseline.txt (not committed; per-machine).
# The run lands in a temp file first so an interrupted or failed run can't
# silently truncate an existing baseline; the move is the commit point.
bench-baseline:
	$(GO) test -bench '$(BENCH_PATTERN)' -benchmem -count $(BENCH_COUNT) -run '^$$' ./... | tee bench-baseline.txt.tmp
	@mv bench-baseline.txt.tmp bench-baseline.txt
	@echo "baseline recorded in bench-baseline.txt"

# Compare the working tree against the recorded baseline with benchstat.
# benchstat is required: a comparison target that silently degrades to
# dumping raw files lets perf regressions through, so missing benchstat is
# a hard error with the install command spelled out.
bench-compare:
	@test -f bench-baseline.txt || { echo "no bench-baseline.txt; run 'make bench-baseline' on the old tree first"; exit 1; }
	@command -v benchstat >/dev/null 2>&1 || { \
		echo "ERROR: benchstat not found in PATH."; \
		echo "Install it with: go install golang.org/x/perf/cmd/benchstat@latest"; \
		exit 1; }
	$(GO) test -bench '$(BENCH_PATTERN)' -benchmem -count $(BENCH_COUNT) -run '^$$' ./... | tee bench-new.txt
	benchstat bench-baseline.txt bench-new.txt

# Machine gate over the bench-baseline/bench-compare pair: fail on >10%
# median regressions, require parallel speedup (w4 beats w1 for both the
# scalar and vector parallel samplers), require adaptive stopping to beat
# the fixed budget it is capped at, require the delta mutation commit to
# beat the full clone+refreeze by >=5x on single-edit batches (and to stay
# ahead on 16-edit batches), and emit the BENCH_mcvec.json speedup
# artifact, the BENCH_anytime.json adaptive-vs-fixed artifact, the
# BENCH_apply.json delta-vs-clone artifact, and a markdown summary
# (bench-summary.md; CI appends it to the job summary).
bench-gate:
	@test -f bench-baseline.txt || { echo "no bench-baseline.txt; run 'make bench-baseline' on the old tree first"; exit 1; }
	@test -f bench-new.txt || { echo "no bench-new.txt; run 'make bench-compare' first"; exit 1; }
	$(GO) run ./cmd/benchgate \
		-old bench-baseline.txt -new bench-new.txt -threshold 0.10 \
		-faster 'BenchmarkParallelReliability/mc/w4<BenchmarkParallelReliability/mc/w1' \
		-faster 'BenchmarkParallelReliability/mcvec/w4<BenchmarkParallelReliability/mcvec/w1' \
		-faster 'BenchmarkAnytimeEstimate/adaptive/p0.02<BenchmarkAnytimeEstimate/fixed/p0.02' \
		-faster 'BenchmarkApply/delta/b1<BenchmarkApply/clone/b1@5' \
		-faster 'BenchmarkApply/delta/b16<BenchmarkApply/clone/b16' \
		-speedup-json BENCH_mcvec.json -anytime-json BENCH_anytime.json \
		-apply-json BENCH_apply.json \
		-markdown bench-summary.md

# End-to-end serving smoke: build cmd/relmaxd, start it on a tiny dataset,
# issue one Solve and one EstimateMany over real HTTP, assert 200s and
# deterministic payloads, and check SIGINT shuts down gracefully.
smoke-relmaxd:
	./scripts/relmaxd_smoke.sh

# Short fuzz smoke: each target fuzzes for 10s on top of the checked-in
# seed corpus, catching shallow regressions in the I/O, Freeze and
# durability-decode paths, in the replication feed's frame decoder
# (FuzzFrameDecode), in the exact path-subgraph objective (its reducing
# factoring against plain factoring up to 20 edges, and against brute force
# up to 12) and in the top-l search: on G ∪ E+ built as a graph from a
# listed E+, and on G with E+ as elimination's implicit pair set.
fuzz-smoke:
	$(GO) test ./internal/ugraph -run '^$$' -fuzz '^FuzzEdgeListRoundTrip$$' -fuzztime 10s
	$(GO) test ./internal/ugraph -run '^$$' -fuzz '^FuzzFreezeConsistency$$' -fuzztime 10s
	$(GO) test ./internal/sampling -run '^$$' -fuzz '^FuzzMCVecScalarReplay$$' -fuzztime 10s
	$(GO) test ./internal/rng -run '^$$' -fuzz '^FuzzSourceMatchesMathRand$$' -fuzztime 10s
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzWALDecode$$' -fuzztime 10s
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzSnapshotDecode$$' -fuzztime 10s
	$(GO) test ./internal/replication -run '^$$' -fuzz '^FuzzFrameDecode$$' -fuzztime 10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzPathReliability$$' -fuzztime 10s
	$(GO) test ./internal/paths -run '^$$' -fuzz '^FuzzTopLWithMatchesReference$$' -fuzztime 10s
	$(GO) test ./internal/paths -run '^$$' -fuzz '^FuzzTopLPairsMatchesReference$$' -fuzztime 10s

# perfbench is a nested module (repro/perfbench, replace repro => ../), so
# the root `go build ./...` and `go test ./...` skip it. It calls internal
# packages directly (core.Solve, candidates.Eliminate, paths.TopL,
# sampling.NewParallel, the Sampler interface), so an internal signature
# change can pass the root suite while breaking the benchmark; this target
# vets and tests it.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Coverage with a ratchet: fail if total coverage drops below the recorded
# baseline (.github/coverage-baseline.txt). Raise the baseline when a PR
# durably improves coverage; never lower it to make CI pass. The ./...
# run includes every tested package — notably cmd/relmaxd, whose /v2 job
# API suite is part of the ratcheted total.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {gsub(/%/,"",$$3); print $$3}'); \
	base=$$(cat .github/coverage-baseline.txt); \
	echo "total coverage: $$total% (baseline: $$base%)"; \
	ok=$$(awk -v t="$$total" -v b="$$base" 'BEGIN {print (t+0 >= b+0) ? 1 : 0}'); \
	if [ "$$ok" != "1" ]; then \
		echo "FAIL: total coverage $$total% fell below the $$base% baseline"; exit 1; \
	fi

lint:
	$(GO) vet ./...
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi

fmt:
	gofmt -w .

# cover runs the full test suite (with the ratchet), so a separate `test`
# prerequisite would run everything twice. bench-gate stays out: it needs
# a baseline recorded on the base commit (the workflow checks that commit
# out first), which a single working tree does not have.
ci: lint build perfbench-check cover race bench-smoke smoke-relmaxd fuzz-smoke
