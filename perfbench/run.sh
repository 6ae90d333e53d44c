#!/usr/bin/env bash
# Builds auricd and the benchmark from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload launch --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# every file a run writes stay under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out" GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/bin/auricd" ./cmd/auricd >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -auricd "$out/bin/auricd" -dir "$out/perfbench" "$@"
