#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given: the command BENCHMARK.json names. Everything the build
# writes stays under .bench_build/: the binary, the Go build cache, and the
# go command's own configuration directory.
#
# The go command, on its first run against a fresh configuration directory,
# starts a detached telemetry child that outlives it. The mode file turns
# telemetry off so that no process is left behind, and without the module
# (a directory that holds only the benchmark) go is not started at all.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod in $PWD: the benchmark builds from the asyncfd module" >&2
	exit 2
fi
export GOCACHE="$PWD/.bench_build/gocache" XDG_CONFIG_HOME="$PWD/.bench_build/config"
export GOFLAGS=-mod=vendor GOTOOLCHAIN=local
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
