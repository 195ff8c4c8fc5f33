#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout, writing only under .bench_build/ (binary, Go build cache,
# scratch files, trace files). All arguments go to the benchmark binary.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local GOPROXY=off
# Stamp the commit into the binary where the checkout is a usable git
# repository; build without it where it is not.
(cd "$here" && { go build -o "$build/atlas-bench" . 2>/dev/null || go build -buildvcs=false -o "$build/atlas-bench" .; }) >&2
cd "$root"
exec "$build/atlas-bench" "$@"
