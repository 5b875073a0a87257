#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload lib-large --seed 1 --seconds 12 --trace 0
#
# Build products, the Go build cache and span dumps stay under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
