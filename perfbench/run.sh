#!/usr/bin/env bash
# Builds the repository benchmark from this checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload train --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artifact, cache and
# temporary file lands under .bench_build/ in the current directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
