#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload itch-feed --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, traces and the daemon's event logs
# stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
# Keep the go command from recording telemetry or starting its uploader.
go telemetry off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" --trace-dir "$out/traces" --work-dir "$out/work" "$@"
