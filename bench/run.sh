#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments. Run from the repository root:
#
#   bash bench/run.sh --workload table3 --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (build cache, temporary files, Go's own
# settings and counters, the binary) stays under .bench_build/ in the
# checkout, and no module is fetched: the benchmark needs only the standard
# library and the repository's own packages.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
