#!/usr/bin/env bash
# Builds neurovec and the benchmark from this checkout, then runs one
# benchmark workload against the fresh binaries.
#
#   bash perfbench/run.sh --workload cold_files --seed 1 --seconds 8 --trace 0
#
# Everything the build and the run write (Go caches, binaries, checkpoints,
# logs) stays under .bench_build/ at the checkout root. The build is offline:
# neurovec and the benchmark use the standard library only.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off

(cd "$root" && go build -o "$out/neurovec" ./cmd/neurovec) >&2
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -bin "$out/neurovec" -work "$out" "$@"
