#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it sits in, then runs it
# with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload replay-full-float --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the zoo model cache (TMPDIR), the
# collector's WAL directories and the result files.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" HOME="$build/home" \
  GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOTELEMETRY=off \
  TMPDIR="$build/tmp"
(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
