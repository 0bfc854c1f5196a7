#!/bin/bash
# What BENCHMARK.json's command runs, from the root of a checkout: build the
# benchmark into .bench_build/ and run it from the root with the driver's
# arguments. Everything the go command writes besides the binary — its build
# cache, its work directory, its telemetry counters (under the user's config
# directory) and module cache — is pointed into .bench_build/ too, so nothing
# is written outside the checkout.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
b="$root/.bench_build"
mkdir -p "$b/tmp"
GOCACHE="$b/gocache" GOTMPDIR="$b/tmp" GOPATH="$b/gopath" XDG_CONFIG_HOME="$b/config" \
	GOTOOLCHAIN=local GOWORK=off \
	go build -C benchmark -o "$b/sieve-benchmark" .
exec "$b/sieve-benchmark" "$@"
