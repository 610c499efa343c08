#!/usr/bin/env bash
# The benchmark's one command.  Builds netmarkd (from the tree, unmodified)
# and the benchmark's own binaries into the checkout's .bench_build/, then
# runs one measurement:
#
#   bash bench/run.sh --workload serve_cold --seed 7 --seconds 8 --trace 0
#
# --trace 0 is the end-to-end run (nmload); --trace 1 is the per-layer
# traced run (nmtrace).  Anything else, such as -aa 5, goes to nmload.
# Nothing outside the checkout is read or written: the Go build cache
# lives under .bench_build/ too.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/work"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

tool=nmload
prev=""
for arg in "$@"; do
  case "$prev $arg" in
    "--trace 1" | "-trace 1" | *" --trace=1" | *" -trace=1") tool=nmtrace ;;
  esac
  prev="$arg"
done

(cd "$root" && go build -o "$build/bin/netmarkd" ./cmd/netmarkd && go build -o "$build/bin/$tool" "./bench/$tool")

exec "$build/bin/$tool" -netmarkd "$build/bin/netmarkd" -work "$build/work" "$@"
