#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root, then runs it with the given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload place-area --seed 1 --seconds 20 --trace 0
#
# Every file the Go toolchain writes (build cache, module cache, work
# and temporary files, its telemetry) stays under .bench_build/, and the
# timed binary is prebuilt, so compile time never lands in a measurement.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
