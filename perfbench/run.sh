#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload oneshot-clean --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The build cache, temporary files and the
# binary all live under .bench_build/ in that directory, the module proxy is
# off (the benchmark needs nothing outside the repository), and the build
# fails when the repository's own go.mod is missing.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS=-buildvcs=false

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
