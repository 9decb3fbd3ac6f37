#!/usr/bin/env bash
# Builds the benchmark into <checkout>/.bench_build and runs it with the
# arguments given. Everything the build writes (binary, Go build cache, Go's
# temporary files) stays inside the checkout. Run it from the checkout's root:
#
#   bash benchmark/run.sh --workload idle --seed 1 --seconds 15 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
export BENCH_OUT="$here/out"

# The layer probes import the inner packages and may stop compiling when
# those are refactored; the gated run must not stop with them.
(cd "$here" && go build -o "$build/benchmark" . 2>"$build/build.err") || {
	echo "benchmark: full build failed, building without the traced run:" >&2
	cat "$build/build.err" >&2
	(cd "$here" && go build -tags notrace -o "$build/benchmark" .)
}
exec "$build/benchmark" "$@"
