#!/usr/bin/env bash
# Builds hyperearservd and the benchmark from the checkout in the current
# directory, then runs one benchmark invocation:
#
#   bash servbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build (or
# $CARGO_TARGET_DIR when set): the Go build cache, the binaries, the
# cached corpus, the daemon's data directories and the replay traces.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/bin" "$out/work"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off CGO_ENABLED=0

go build -o "$out/bin/hyperearservd" ./cmd/hyperearservd
(cd servbench && go build -o "$out/bin/servbench" .)
exec "$out/bin/servbench" -daemon "$out/bin/hyperearservd" -work "$out/work" -root "$root" "$@"
