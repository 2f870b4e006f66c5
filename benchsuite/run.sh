#!/usr/bin/env bash
# Builds the benchmark and the programs under test (cmd/smbsim,
# cmd/smbsimd, cmd/tracegen) from the checkout in the current directory,
# then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash benchsuite/run.sh --workload sweep-proc --seed 1 --seconds 10 --trace 0
#
# Every build output stays under .bench_build/ in the checkout: the Go
# build cache, and the go command's configuration directory, where it
# keeps its telemetry counters.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/smbsimd || ! -f benchsuite/go.mod ]]; then
	echo "benchsuite: run from the repository root (go.mod, cmd/ and benchsuite/ not found)" >&2
	exit 2
fi

build="$(pwd)/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
mkdir -p "$build/bin"

go build -o "$build/bin/" ./cmd/smbsim ./cmd/smbsimd ./cmd/tracegen
(cd benchsuite && go build -o "$build/bin/benchsuite" .)

exec "$build/bin/benchsuite" -bin "$build/bin" -workdir .bench_build "$@"
