#!/usr/bin/env bash
# Builds the explorer and the perfbench harness from the tree under
# test, then runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload explore|ingest|reproduce --seed N --seconds S --trace 0|1
#
# Everything it builds, caches and writes stays under .bench_build/ in
# the repository root; the last line of standard output is the result.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/explorer || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a peoplesnet checkout (go.mod, cmd/explorer and perfbench/ not found)" >&2
	exit 1
fi

root=$PWD
build=$root/.bench_build
mkdir -p "$build/bin" "$build/tmp" "$build/config" "$build/cache"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOPATH=$build/gopath
export GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config XDG_CACHE_HOME=$build/cache
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

go build -o "$build/bin/explorer" ./cmd/explorer >&2
go -C perfbench build -o "$build/bin/perfbench" . >&2

exec "$build/bin/perfbench" -explorer "$build/bin/explorer" -out "$build/perfbench" "$@"
