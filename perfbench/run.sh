#!/usr/bin/env bash
# Builds the end-to-end benchmark from the source tree it sits in and
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload raw --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, binary, verdict-store scratch directories,
# span dumps) stays under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out" "$@"
