#!/usr/bin/env bash
# Builds relmaxd and the benchmark from this checkout, then runs the
# benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload solve-cold --seed 1 --seconds 15 --trace 0
#
# Everything the Go toolchain and the benchmark write stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp" "$out/home"
export HOME="$out/home" GOPATH="$out/home/go" GOCACHE="$out/gocache" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS= GOWORK=off
# With telemetry on (the default under a fresh HOME), the go command starts a
# detached upload process that can outlive this script.
go telemetry off
go build -o "$out/bin/relmaxd" ./cmd/relmaxd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -relmaxd "$out/bin/relmaxd" -work "$out" "$@"
