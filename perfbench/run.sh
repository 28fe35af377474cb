#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload match-closed --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) stays in
# .bench_build/ under the root; the first build in a fresh checkout compiles
# the standard library too and takes about a minute.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
