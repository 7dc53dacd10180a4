#!/usr/bin/env bash
# Builds the calibperf benchmark and runs it from the repository root,
# passing every argument through, e.g.
#
#   bash bench/run.sh --workload stream-mem --seed 1 --seconds 15 --trace 0
#
# Go's build cache, module cache and temporary files, the built binaries,
# daemon data and trace spans all stay under .bench_build/ in the
# repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
cd "$root/bench"
go build -o "$build/bin/calibperf" .
cd "$root"
exec "$build/bin/calibperf" "$@"
