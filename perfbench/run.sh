#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload replay-paper --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (Go build cache, binary, model
# directories, trace files) goes under .bench_build/ in the current
# directory. Build output goes to stderr; the last line of stdout is the
# JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
mkdir -p "$TMPDIR"

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
