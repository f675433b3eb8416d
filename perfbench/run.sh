#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload campaign|concurrent|fleet --seed N --seconds N --trace 0|1
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ there: the Go build cache, the toolchain's
# temporary files and its local telemetry included. The first run
# compiles the standard library into that cache.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOENV=off \
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
