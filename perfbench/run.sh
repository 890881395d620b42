#!/usr/bin/env bash
# Builds cmd/inca-server and the benchmark from source, then runs one
# benchmark workload:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build caches, binaries, data
# directories and trace files all live under .bench_build/ in the current
# directory, so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomod"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOENV=off

# Compilation is not part of any measurement.
go build -o "$out/bin/inca-server" ./cmd/inca-server 1>&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) 1>&2

exec "$out/bin/perfbench" -server "$out/bin/inca-server" -work "$out/work" "$@"
