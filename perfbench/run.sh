#!/usr/bin/env bash
# Builds the benchmark driver and the onepassd daemon from this source
# tree, then runs the driver with the given arguments:
#
#   bash perfbench/run.sh --workload sessionize-sm --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# run directories all stay inside the tree (.bench_build, .bench_run).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/onepassd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/onepassd and perfbench/go.mod must exist)" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

go build -o "$out/onepassd" ./cmd/onepassd
(cd "$root/perfbench" && go build -o "$out/perfbench" .)

exec "$out/perfbench" -onepassd "$out/onepassd" -rundir "$root/.bench_run" "$@"
