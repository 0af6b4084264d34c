#!/usr/bin/env bash
# Builds the host-performance benchmark from source into the build
# directory of the checkout (.bench_build unless CARGO_TARGET_DIR names
# another) and runs it with every argument passed through. Run it from
# the repository root:
#
#   bash hostbench/run.sh --workload ds-nto1 --seed 1 --seconds 30 --trace 0
#
# The Go build cache and configuration live in the build directory too,
# so nothing is read or written outside the checkout but the toolchain.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOWORK=off

(cd "$(dirname "$0")" && go build -o "$build/hostbench" .)
exec "$build/hostbench" "$@"
