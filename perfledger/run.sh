#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# root of a checkout; arguments are passed to the benchmark, e.g.
#
#   bash perfledger/run.sh --workload mag-file-device --seed 1 --seconds 10 --trace 0
#
# Build outputs and the run's scratch files stay under .bench_build/ in the
# checkout. The build needs nothing beyond the Go toolchain: the repository
# module is replaced by the checkout itself and has no dependencies.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config"
export GOPATH="$build/gopath" GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command keeps its settings and local telemetry under the user
# config directory; point it into the checkout too.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/perfledger" && go build -o "$build/perfledger" .)
exec "$build/perfledger" -dir "$build" "$@"
