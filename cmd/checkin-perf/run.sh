#!/usr/bin/env bash
# Builds checkin-perf from the sources in this checkout and runs it with the
# given flags. Run it from the repository root:
#
#   bash cmd/checkin-perf/run.sh -workload journal-a-zipf -seed 1 -trace 0
#
# The binary, the Go build cache and every other file the toolchain writes
# stay under $CARGO_TARGET_DIR (default .bench_build) in the current
# directory. Outside a full checkout the build fails, so the script exits
# non-zero without printing a result.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac

export GOCACHE=$out/go-cache GOPATH=$out/go-path GOTMPDIR=$out/go-tmp
export XDG_CONFIG_HOME=$out/config GOENV=off GOFLAGS= GOWORK=off
export GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
mkdir -p "$GOTMPDIR"

go -C "$here" build -o "$out/checkin-perf" .
exec "$out/checkin-perf" "$@"
