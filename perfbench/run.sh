#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload model-edit --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --steady 5        # steadiness report
#
# The benchmark is its own Go module (perfbench/go.mod) that compiles the
# program from the enclosing checkout through a replace directive, so the
# checkout's go.mod must be present. Build outputs, the Go build cache and
# the binary stay under .bench_build/ in the checkout (or under
# $CARGO_TARGET_DIR when it is set).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root; the program's sources are missing here" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp" "$out/config"
# Keep every file the Go toolchain writes (build cache, temporary work
# directories, telemetry counters) inside the checkout, and never fetch.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
