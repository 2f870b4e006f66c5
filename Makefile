# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-race run-lists stress stream-smoke benchsuite-test vet lint chaos bench-daemon bench panels lowerbounds arch faults obs-demo report report-check examples clean

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

test:
	$(GO) test ./...

# Race-detector pass over the concurrency-sensitive harness packages and
# the shared-state providers they drive, including the sharded runtime
# and its daemon.
test-race:
	$(GO) test -race ./internal/sim/... ./internal/faults/... ./internal/cli/... ./internal/traffic/... ./internal/adversary/... ./internal/shard ./internal/obs ./cmd/smbsimd

# The internal/sim tests that `make stress` repeats, and those CI's
# stream-smoke job runs: -run regexes, one alternative per test or
# test family.
STRESS_SIM_TESTS = Journal|Checkpoint|Leased|ReplayPanicConfined|ParallelMatchesSequential|SweepIntraCellSplit|InstanceRecordsArrivalsOnce|LockstepMatchesSoloReplays
STREAM_SMOKE_TESTS = TestStreamedMatchesMaterialized|TestStreamedPortCountersMatch|TestParallelMatchesSequential|TestReplaysLeaveMemoizedTraceIntact|TestInstanceRecordsArrivalsOnce|TestInstanceOverBudgetStreams|TestLockstepMatchesSoloReplays

# Fail when an alternative of either list above matches no test in
# internal/sim (go test -list), so a renamed test cannot silently drop
# out of the stress and smoke passes.
run-lists:
	@tests=$$($(GO) test -list . ./internal/sim) || { echo "$$tests"; exit 1; }; \
	for name in $$(echo '$(STRESS_SIM_TESTS)|$(STREAM_SMOKE_TESTS)' | tr '|' ' '); do \
		echo "$$tests" | grep -Eq -- "$$name" || { echo "run-lists: -run name $$name matches no test in ./internal/sim"; exit 1; }; \
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

# Crash-chaos harness for -checkpoint: SIGKILL a real smbsim process
# mid-cell, tear its journal inside the final record, resume, and
# require the -csv output to be byte-identical to an uninterrupted run;
# repeated kills on one cell must degrade it (DESIGN.md §13). Replay a
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

faults:
	$(GO) run ./cmd/smbsim -experiment faults

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

clean:
	$(GO) clean ./...
