#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it. Everything the
# Go toolchain and the benchmark write (build cache, temp files, the
# binary) stays under .bench_build/ and bench/out/, so a run reads and
# writes only inside its checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/hetmr-bench" .)
cd "$root"
exec "$build/hetmr-bench" "$@"
