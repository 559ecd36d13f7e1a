#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload mesh_steady --seed 1 --seconds 27 --trace 0
#
# The binary, the Go build cache and Go's temporary files go under
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail

root="$PWD"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/go-build" GOTMPDIR="$out/tmp" GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
