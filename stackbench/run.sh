#!/usr/bin/env bash
# Builds the stackbench benchmark from this checkout and runs it:
#
#   bash stackbench/run.sh --workload kv-mixed --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# traced run's span file stay under $CARGO_TARGET_DIR (default
# .bench_build) in the current directory.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

export GOCACHE="$out/go-cache"
export GOPATH="$out/go-path"
export GOMODCACHE="$out/go-path/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$here" && go build -o "$out/stackbench" .)
exec "$out/stackbench" -spans "$out/spans.jsonl" "$@"
