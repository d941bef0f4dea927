#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload lu-refactor --seed 1 --seconds 20 --trace 0
#
# Every build artefact (Go build cache, binary) stays under .bench_build/ and
# every run artefact (journal, spill files, span dumps, provenance) under
# .bench_out/, both at the root of the checkout.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$root/.bench_out/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$root/.bench_out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off CGO_ENABLED=0
go -C "$root/e2ebench" build -o "$build/e2ebench" .
exec "$build/e2ebench" "$@"
