#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it from
# the repository root; arguments go to the benchmark binary:
#
#   bash perfbench/run.sh --workload decide-deepbat --seed 1 --seconds 10 --trace 0
#
# The Go build cache, module cache and binary live under .bench_build (or
# $CARGO_TARGET_DIR when set), so nothing is written outside the checkout.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOENV=off GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config"

cd perfbench
# VCS stamping records the git commit when the checkout is a repository.
go build -o "$build/perfbench" . 2>/dev/null || go build -buildvcs=false -o "$build/perfbench" .
cd ..
exec "$build/perfbench" "$@"
