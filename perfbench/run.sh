#!/usr/bin/env bash
# Builds the benchmark and the CLIs it drives from this checkout's source,
# then runs one workload:
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ at the root of
# the checkout, including the Go build cache.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off
go -C "$root/perfbench" build -o "$build/bin/" . repro/cmd/patchwork repro/cmd/pwanalyze >&2
cd "$root"
exec "$build/bin/perfbench" -root "$root" "$@"
