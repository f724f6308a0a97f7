#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything go writes (build cache, temp files, the
# binary, durable nodes' data) goes under .bench_build in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/benchmark" .)
# A fresh build leaves ~100 MB of dirty pages; flush them now, or their
# write-back slows the durable workload's fsyncs for the next half minute.
sync -f "$build" 2>/dev/null || sync
exec "$build/benchmark" -workdir "$build/work" "$@"
