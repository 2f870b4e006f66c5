# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-race run-lists stress stream-smoke benchsuite-test vet lint init-check chaos bench-daemon bench-sweep bench panels lowerbounds arch obs-demo report report-check examples loc clean

all: build vet lint test test-race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis: gofmt hygiene plus the smblint suite (determinism,
# seeding, wall-clock, hot-path allocation, concurrency fence, cursor
# sticky-error and doc contracts — see DESIGN.md §11; the
# compiler-diagnostic escapecheck/hotcall layer is §16). Runs a full
# build first so escapecheck replays -m=2 diagnostics from a warm build
# cache. Fails on any diagnostic.
lint: build
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/smblint ./...

# Start-up budget: every smbm package init in smbsim, smbsimd, tracegen
# and report must finish within INIT_BUDGET_MS, as GODEBUG=inittrace=1
# times it on a -h run (each exits 0 before doing any work). Every CLI
# launch, daemon start and test binary pays these inits. The reading is
# wall-clock, so a loaded machine can inflate one launch: each binary
# runs 5 times, a package fails only when its fastest launch is
# over budget, and a failure prints every sample. A slow init is slow on
# every launch.
INIT_BUDGET_MS = 2
init-check:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/" ./cmd/smbsim ./cmd/smbsimd ./cmd/tracegen ./cmd/report && \
	for c in smbsim smbsimd tracegen report; do \
		for i in $$(seq 5); do \
			out=$$(GODEBUG=inittrace=1 "$$dir/$$c" -h 2>&1) || { echo "$$out"; echo "init-check: $$c -h failed"; exit 1; }; \
			echo "$$out" >> "$$dir/$$c.trace"; \
		done; \
		awk -v bin=$$c -v budget=$(INIT_BUDGET_MS) \
			'$$1 == "init" && $$2 ~ /^smbm\// { ms = $$5 + 0; seen[$$2] = seen[$$2] " " $$5; if (!($$2 in low) || ms < low[$$2]) low[$$2] = ms } \
			END { for (p in low) if (low[p] > budget) { print "init-check: " bin ": " p " took at least " low[p] " ms clock in 5 launches (budget " budget " ms); samples:" seen[p]; bad = 1 } exit bad }' \
			"$$dir/$$c.trace" || exit 1; \
	done; \
	echo "init-check: every smbm package init within $(INIT_BUDGET_MS) ms (fastest of 5 launches)"

test:
	$(GO) test ./...

# Race-detector pass over the concurrency-sensitive harness packages and
# the shared-state providers they drive, including the sharded runtime
# and its daemon.
test-race:
	$(GO) test -race ./internal/sim/... ./internal/cli/... ./internal/traffic/... ./internal/adversary/... ./internal/shard ./internal/obs ./cmd/smbsimd

# The internal/sim tests that `make stress` repeats, and those CI's
# stream-smoke job runs: -run regexes, one alternative per test or
# test family.
STRESS_SIM_TESTS = Journal|Checkpoint|Leased|ReplayPanicConfined|ParallelMatchesSequential|SweepIntraCellSplit|InstanceRecordsArrivalsOnce|LockstepMatchesSoloReplays|LockstepMixedSystems
STREAM_SMOKE_TESTS = TestStreamedMatchesMaterialized|TestStreamedPortCountersMatch|TestParallelMatchesSequential|TestReplaysLeaveMemoizedTraceIntact|TestInstanceRecordsArrivalsOnce|TestInstanceOverBudgetStreams|TestLockstepMatchesSoloReplays|TestLockstepMixedSystems

# Fail when an alternative of either list above matches no test in
# internal/sim (go test -list), or when a `-fuzz=Name ./pkg/` of CI's
# fuzz smoke names no fuzz target of that package, so a renamed test
# cannot silently drop out of the stress, smoke and fuzz passes (`go
# test -fuzz` on an unknown name prints "no fuzz tests to fuzz" and
# exits 0).
CI_WORKFLOW = .github/workflows/ci.yml
run-lists:
	@tests=$$($(GO) test -list . ./internal/sim) || { echo "$$tests"; exit 1; }; \
	for name in $$(echo '$(STRESS_SIM_TESTS)|$(STREAM_SMOKE_TESTS)' | tr '|' ' '); do \
		echo "$$tests" | grep -Eq -- "$$name" || { echo "run-lists: -run name $$name matches no test in ./internal/sim"; exit 1; }; \
	done
	@sed -nE 's/.*-fuzz=([A-Za-z0-9_]+) .* (\.\/[^ ]+).*/\1 \2/p' $(CI_WORKFLOW) | while read -r name pkg; do \
		fuzz=$$($(GO) test -list '^Fuzz' "$$pkg") || { echo "$$fuzz"; exit 1; }; \
		echo "$$fuzz" | grep -qx -- "$$name" || { echo "run-lists: $(CI_WORKFLOW) fuzzes $$name, which matches no fuzz target in $$pkg"; exit 1; }; \
	done

# Stress pass over the concurrent packages: the race detector, twenty
# runs each at GOMAXPROCS 1, 2 and 8, so interleaving bugs surface here
# instead of as one-in-N failures of the plain test run.
stress: run-lists
	$(GO) test -race -count=20 -cpu 1,2,8 ./internal/shard ./internal/obs ./cmd/smbsimd
	$(GO) test -race -count=20 -cpu 1,2,8 -run '$(STRESS_SIM_TESTS)' ./internal/sim

# Streaming-pipeline guardrail (CI stream-smoke): the streamed runs,
# the lockstep loop and the parallel fan-out against their references.
stream-smoke: run-lists
	$(GO) test -run '$(STREAM_SMOKE_TESTS)' ./internal/sim

# The benchmark module (benchsuite/, its own go.mod) sits outside ./...,
# so the plain test run never compiles it; vet and short-test it here so
# API drift in the packages it drives fails a build, not a benchmark run.
benchsuite-test:
	cd benchsuite && $(GO) vet . && $(GO) test -short .

# Daemon benchmark: the two smbsimd workloads of benchsuite/
# (daemon-stream, daemon-short) with end-to-end metrics only, built
# from this checkout (about a minute and a half). To compare two
# checkouts, run it in each and pass the two printed results files to
# `.bench_build/bin/benchsuite compare OLD NEW`.
bench-daemon:
	bash benchsuite/run.sh --workload daemon-stream,daemon-short --trace 0
	@echo "results: $(CURDIR)/.bench_build/results/daemon-stream+daemon-short-seed1-trace0.json"

# Sweep benchmark: the two sweep workloads of benchsuite/ (sweep-proc,
# sweep-value) with end-to-end metrics only, built from this checkout.
# Compare two checkouts the same way as bench-daemon.
bench-sweep:
	bash benchsuite/run.sh --workload sweep-proc,sweep-value --trace 0
	@echo "results: $(CURDIR)/.bench_build/results/sweep-proc+sweep-value-seed1-trace0.json"

# Crash-chaos harness for -checkpoint: SIGKILL a real smbsim process
# mid-cell, tear its journal inside the final record, resume, and
# require the -csv output to be byte-identical to an uninterrupted run,
# also after repeated kills on one cell (DESIGN.md §13). Replay a
# schedule with SMBM_CHAOS_SEED=<n> make chaos.
chaos:
	$(GO) test ./cmd/smbsim -count=1 -v -run TestChaos

# Full benchmark pass (tables, figures, substrates, ablations).
bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate the paper's evaluation artifacts.
panels:
	$(GO) run ./cmd/smbsim

lowerbounds:
	$(GO) run ./cmd/lowerbound

arch:
	$(GO) run ./cmd/smbsim -experiment arch

# Observability demo: one small panel with decision counters, the last
# 32 decision events per replay dumped to stderr, and the pprof/expvar
# endpoint live on localhost:6060 for the duration (DESIGN.md §12).
obs-demo:
	$(GO) run ./cmd/smbsim -experiment fig5.1 -slots 2000 -seeds 1 \
		-obs -trace-events 32 -pprof localhost:6060

# Regenerate EXPERIMENTS.md from a fresh evaluation run.
report:
	$(GO) run ./cmd/report > EXPERIMENTS.md

# Fail if EXPERIMENTS.md is stale: the full-scale run (nine panels, arch,
# latency, theorems at 4000 slots x 3 seeds) must reproduce it byte for
# byte.
report-check:
	$(GO) run ./cmd/report | cmp - EXPERIMENTS.md

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/heteroservices
	$(GO) run ./examples/valuetiers
	$(GO) run ./examples/adversarial
	$(GO) run ./examples/theorem7

# Lines of Go, non-test and test, as ROADMAP.md counts them: every
# tracked .go file outside benchsuite/.
loc:
	@git ls-files '*.go' | grep -v '^benchsuite/' | grep -v '_test\.go$$' | xargs cat | wc -l | sed 's/^/non-test: /'
	@git ls-files '*.go' | grep -v '^benchsuite/' | grep '_test\.go$$' | xargs cat | wc -l | sed 's/^/test:     /'

clean:
	$(GO) clean ./...
