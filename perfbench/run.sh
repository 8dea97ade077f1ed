#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload figure4-sweep --seed 1 --seconds 40 --trace 0
#
# The binary, the Go build cache and the traced run's spans go to
# .bench_build (or $CARGO_TARGET_DIR when set), so nothing is written outside
# the tree. Without the repository's own sources next to perfbench/ the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --spans "$out/spans" "$@"
