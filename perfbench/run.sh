#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. The build cache, the binary and trace
# files all live under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no go.mod in $root; run from the repository root" >&2
	exit 2
fi
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local \
	GOFLAGS=-mod=readonly XDG_CONFIG_HOME="$out/config" GOTELEMETRY=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
