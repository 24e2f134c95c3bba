#!/usr/bin/env bash
# Builds rvbench from this checkout and runs it with the given arguments.
# Everything the build and the run write — Go build cache, temporary files,
# the binary, sub-churn's subscription store — stays under .bench_build/ at
# the root of the checkout.
set -euo pipefail
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" TMPDIR="$build/tmp"
(cd "$bench" && go build -o "$build/rvbench" ./rvbench)
exec "$build/rvbench" "$@"
