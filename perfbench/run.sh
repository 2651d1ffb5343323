#!/usr/bin/env bash
# Builds the OSIRIS benchmark from the checkout's source and runs it with
# the given arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload campaign_warm --seed 42 --seconds 30 --trace 0
#
# Every piece of build state (compiled packages, the binary, Go's
# configuration directory) stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS=-mod=mod GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
