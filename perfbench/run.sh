#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given flags:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build outputs and the Go build cache go
# to $CARGO_TARGET_DIR (default .bench_build) inside the checkout; the
# module has no external dependencies, so nothing is downloaded.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" "$@"
