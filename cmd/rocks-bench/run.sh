#!/usr/bin/env bash
# Builds rocks-bench from the checkout it is run in and runs it, keeping
# everything the go tool writes (build cache, temporary files, its own
# configuration) under .bench_build/ in that checkout. BENCHMARK.json names
# this script as the benchmark's command; run it from the root of the
# repository:
#
#   bash cmd/rocks-bench/run.sh --workload admin_mix --seed 7 --seconds 20 --trace 0
set -euo pipefail

# Without the module there is no program to measure. Say so before the go
# tool is started at all, so that nothing is left behind in such a directory.
if [ ! -f go.mod ] || [ ! -d internal/core ]; then
	echo "rocks-bench: $PWD is not a checkout of the rocks module (no go.mod or internal/core)" >&2
	exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
# On its first run against a fresh configuration directory the go tool starts
# a detached telemetry child in a process group of its own, which can outlive
# a short `go build`. Mode "off" means that child is never started, so every
# process of a run is the build (waited for below) or rocks-bench itself.
echo off >"$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOENV=off
go build -o "$build/rocks-bench" ./cmd/rocks-bench
exec "$build/rocks-bench" "$@"
