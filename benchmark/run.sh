#!/usr/bin/env bash
# Entry point of the benchmark (BENCHMARK.json's command). Builds the load
# generator into <checkout>/.bench_build and runs it; the generator builds
# kspotd itself (timed as proc.build_s). Everything the toolchain writes —
# build cache, module cache, its own config — stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/benchmark" -o "$build/bin/kspot-benchmark" .
exec "$build/bin/kspot-benchmark" -root "$root" "$@"
