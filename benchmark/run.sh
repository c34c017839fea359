#!/usr/bin/env bash
# Builds the benchmark harness from source inside the checkout and runs it.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, the temporary link directory and the go command's own
# configuration live under .bench_build/, the generated inputs and span
# dumps under benchmark/out/. The harness is a module of its own
# (benchmark/go.mod) that replaces the root module with "../", so a
# directory holding only benchmark/ and BENCHMARK.json fails to build and
# this script exits non-zero without printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
  /*) ;;
  *) build="$root/$build" ;;
esac
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off

# The commit is stamped into the binary when the checkout is a git
# repository the go command may read; anywhere else the build goes without.
go -C "$here" build -o "$build/bicrit-benchmark" . 2>/dev/null ||
  go -C "$here" build -buildvcs=false -o "$build/bicrit-benchmark" .
cd "$root"
exec "$build/bicrit-benchmark" -out "$here/out" "$@"
