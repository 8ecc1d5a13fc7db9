#!/usr/bin/env bash
# Builds the benchmark and cmd/oclmon from the checkout in the current
# directory, then runs the benchmark there:
#
#   bash perfbench/run.sh --workload spill-write --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and run scratch stay under .bench_build/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/oclmon ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of a repository checkout" >&2
	exit 2
fi
# Fall back to Go's standard install location when go is not on PATH.
command -v go > /dev/null || PATH="$PATH:/usr/local/go/bin"
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -o "$out/oclmon" ./cmd/oclmon
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" --oclmon "$out/oclmon" "$@"
