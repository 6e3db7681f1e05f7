#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run it from the repository root, for example:
#
#   bash bench/run.sh --workload erp-extend --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary stay in
# bench/.bench_build, and runs work in bench/.bench_out (another -out
# overrides it), so the benchmark writes nowhere else.
set -euo pipefail

bench=$(cd "$(dirname "$0")" && pwd)
build="$bench/.bench_build"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
mkdir -p "$GOTMPDIR"

(cd "$bench" && go build -o "$build/e2e" ./e2e)
exec "$build/e2e" -out "$bench/.bench_out" "$@"
