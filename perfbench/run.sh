#!/usr/bin/env bash
# Builds the benchmark from the source in the current checkout and runs it
# with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload sessions --seed 1 --seconds 30 --trace 0
#
# Every file the build and the run write stays under .bench_build.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTELEMETRY=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
