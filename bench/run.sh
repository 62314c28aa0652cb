#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Usage, from anywhere: bash bench/run.sh [flags]; see bench/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
# Keep every byte the toolchain writes inside the checkout (build cache,
# module cache, work directories, telemetry counters), and never let it reach
# for the network: the module has no dependency outside the repo.
GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local \
	go build -C bench -o "$build/ddp-bench" .
exec "$build/ddp-bench" "$@"
