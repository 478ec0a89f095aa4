#!/usr/bin/env bash
# The benchmark driver's entry point (BENCHMARK.json "command"), run from
# the root of a checkout:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds ./bench from source and runs it. Everything the build writes
# (build cache, temporary files, Go's per-user config directory) is kept
# under .bench_build/ inside the checkout, so a run touches nothing
# outside it; the first run in a checkout therefore also compiles the
# standard library. People use `go run ./bench` instead (README.md).
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: run from the root of a dejavu checkout (go.mod and internal/ not found here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

go build -o "$build/dejavu-bench" ./bench
exec "$build/dejavu-bench" "$@"
