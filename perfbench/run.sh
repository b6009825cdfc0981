#!/usr/bin/env bash
# Builds the benchmark driver from this checkout's sources and runs it with
# the arguments given, e.g.
#
#   bash perfbench/run.sh --workload campus --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (the binary, Go's build cache, temporary
# files, the go command's own config) stays under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout. The driver
# builds against the repository's go.mod and vendor/, so outside a full
# checkout the build, and the run, fail.
set -euo pipefail
if [ ! -f go.mod ]; then
	echo "perfbench: no go.mod here; run from the repository root" >&2
	exit 1
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config/go/telemetry"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
# With telemetry in its default "local" mode the go command forks a detached
# sidecar process that can outlive the build. Turning it off keeps the
# benchmark from leaving any process behind.
echo off >"$out/config/go/telemetry/mode"
export GOFLAGS=-mod=vendor GOTOOLCHAIN=local
go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
